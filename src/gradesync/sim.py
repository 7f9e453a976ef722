"""Deterministic event-driven network simulator for the sync protocols.

Every node owns a drifting hardware clock, the newest flood sequence number it
holds and, per lane, a logical clock, a gain (a step size times
``protocols.error_scale``; a step only in reports) and its last sync error.
Every gain has one bound, ``protocols.gain_limit``, so a lane's updates depend
only on its start gain, the step policy and shared inputs: the protocols with
one start gain, compared bitwise, share a lane, which updates under the first
one's name.  ``run`` keeps a lane as five flat float lists by node position
(value, rate, hw_at, gain, error) and applies ``protocols.update`` to them.  A
node broadcasts whenever its *own* hardware clock crosses a multiple of
beacon_period * nominal_freq ticks; the reference node stamps each of its
broadcasts with a fresh flood sequence number.  Broadcasts are delivered to
every neighbor at the emission instant, with an independent Gaussian noise draw
per receiver added to the payload clock values (noise perturbs the reported
value, not the delivery time, so negative draws are fine).  A delivery is
applied only if it carries a strictly newer sequence number than the receiver
holds; a stale one changes nothing.  Sequence numbers only grow, so a delivery
whose receiver holds its flood when it is sent is stale at once, and a sender
reads its logical clocks only for a beacon some receiver can accept.

There is no event queue: hardware readings are a pure function of time, so the
beacon schedule is known up front.  All clocks are one ``clocks.ClockTable``;
its ``crossings`` give every beacon's instant and sender reading in (time,
node id) order, computed in one pass.  Trace samples touch no clock:
the hardware grid comes from the table after the loop, and the logical
readings from the update log, with the arithmetic of ``LogicalClock.read``.
So the sample period changes no event of a run.  The log, (t, node position,
seq, hw) per accepted delivery and per lane (received, rate, error, gain), is
the one record of updates; ``SkewTrace.events`` reads it on first access.

Determinism: all randomness comes from numpy generators spawned off a single
SeedSequence(config.seed), one stream per purpose (phases, delays, drops, one
drift stream per node).  Each instant t is handled whole, and a sample at t sees
nothing of it: first every beacon due at t in node-id order, each built
from its sender's state before t and drawing its receivers' noise and drop
values in neighbor order, and last the deliveries those beacons made, in the
order they were sent; ``SkewTrace.events`` lists the accepted ones in that
order.  So a beacon always carries its sender's pre-instant state and floods
propagate one hop per round even with perfectly aligned clocks.  Identical
configs produce bit-identical traces, and a protocol's trace does not depend
on which other protocols are enabled alongside it.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter

import numpy as np

from .clocks import ClockTable, ConstantDrift, DriftModel, WhiteDrift, read_before_update
from .errors import ContractViolation, DrivenRate
from .protocols import GRADES, PISYNC, PROTOCOLS, error_scale, gain_limit, step_size_limit, update
from .protocols import on_beacon_tick  # unused by ``run``; bench/tracer.py wraps this name

# Drift spec strings accepted by SimConfig.drift (besides explicit models).
WHITE_DRIFT = "white"
RANDOM_CONSTANT_DRIFT = "random-constant"

# The most a run may ask for, by what it counts; each check names the
# parameter that asked and the largest value that fits.  A trace cell takes 8
# bytes of hardware reading, 8 of hardware rate, 16 per protocol for its reading
# and rate, and up to 16 more while a protocol's readings are assembled: 160 MB
# per array at the bound (a 2,000-node line over 20 rounds needs 122k cells); each
# accepted delivery keeps 32 bytes of log plus 32 per protocol as long as its trace.  A
# Monte-Carlo trial takes 610-720 bytes for its noise block and temporaries and
# 45 more per path: about 770 for two protocols, under 400 MB at the bound.  At
# BENCH_25.json's rates (fig3 448k node-rounds a second, theory-check 60.5M draws,
# about one per path-round) the two work bounds take about 220 s and 33 s.
BUDGETS = {
    "trace cells (samples x nodes)": 2 * 10**7,
    "Monte-Carlo paths (protocols x trials)": 5 * 10**5,
    "node-rounds (nodes x rounds, summed over seeds)": 10**8,
    "path-rounds (protocols x trials x rounds x grid points)": 2 * 10**9,
}
CELLS, PATHS, NODE_ROUNDS, PATH_ROUNDS = BUDGETS


def sample_grid(duration: float, beacon_period: float, sample_period=None) -> tuple[int, float]:
    """A trace's sample count and period (default beacon_period / 3): a sample at 0 and every
    period up to ``duration``, the count capped past the CELLS budget to stay an int."""
    period = sample_period if sample_period is not None else beacon_period / 3.0
    return math.floor(min(duration / period, BUDGETS[CELLS]) + 1e-9) + 1, period


def check_budget(budget: str, name: str, value: int, cost, at: str = "", least=0,
                 other="") -> int:
    """``value``, if ``cost(value)`` fits ``BUDGETS[budget]``.

    Else a ValueError names parameter ``name``, the largest value that fits and,
    in ``at``, what else sets it; or parameter ``other`` if not even ``least``,
    the least value ``name`` accepts, fits.  ``cost(x)`` is at least x and
    never falls as x grows.
    """
    bound = BUDGETS[budget]
    if value <= bound and cost(value) <= bound:
        return value
    if cost(least) > bound:
        raise ValueError(f"parameter {other} is too large: even {name}={least}{at} asks for "
                         f"more than {bound} {budget}")
    lo, hi = least, min(value, bound + 1)  # cost(hi) is over the bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if cost(mid) <= bound else (lo, mid)
    raise ValueError(f"parameter {name} must be at most {lo}{at}, got {value}")


# The update rule under each protocol's name, kept because bench/tracer.py wraps
# them; ``run`` looks them up when it starts, so each protocol is counted on its own.
grades_on_message = update
pisync_on_message = update


@dataclass(frozen=True)
class Topology:
    """Undirected connected graph over integer node ids; one reference node."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    reference: int = 1

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes) or not self.nodes:
            raise ValueError("nodes must be a non-empty set of distinct ids")
        if any(u <= 0 for u in self.nodes):
            raise ValueError("node ids must be positive")
        known = set(self.nodes)
        seen = set()
        for u, v in self.edges:
            if u == v or u not in known or v not in known:
                raise ValueError(f"bad edge ({u}, {v})")
            if frozenset((u, v)) in seen:
                raise ValueError(f"repeated edge ({u}, {v})")
            seen.add(frozenset((u, v)))
        if self.reference not in known:
            raise ValueError("reference node is not in the topology")
        if len(self.nodes) > 1 and self.hops_from_reference().keys() != known:
            raise ValueError("topology must be connected")

    @staticmethod
    def line(n: int) -> "Topology":
        """Nodes 1..n in a chain, with node 1 as the reference."""
        if n < 1:
            raise ValueError("need at least one node")
        nodes = tuple(range(1, n + 1))
        edges = tuple((i, i + 1) for i in range(1, n))
        return Topology(nodes=nodes, edges=edges)

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        """Sorted neighbour tuple of every node, built once in O(N + E)."""
        adj: dict[int, list[int]] = {u: [] for u in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {u: tuple(sorted(vs)) for u, vs in adj.items()}

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adjacency.get(u, ())

    def hops_from_reference(self) -> dict[int, int]:
        dist = {self.reference: 0}
        queue = deque([self.reference])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.  Every number must be finite."""

    topology: Topology
    beacon_period: float
    duration: float
    nominal_freq: float = 1.0
    max_deviation: float = 0.0
    delay_std: float = 0.0
    drift: object = ConstantDrift(0.0)  # model | "white" | "random-constant" | {node: spec}
    protocols: tuple[str, ...] = (GRADES,)
    step_policy: str = "fixed"
    step_size: object = None  # float | {protocol: float} | None (adaptive default: limit/2)
    sample_period: float | None = None  # default beacon_period / 3
    phase_mode: str = "random"  # "aligned" | "random" | "staggered"
    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        positive = (self.beacon_period, self.duration, self.nominal_freq)
        if not all(0 < x < math.inf for x in positive):
            raise ValueError("beacon_period, duration and nominal_freq must be finite and > 0")
        if not 0 <= self.max_deviation < self.nominal_freq:
            raise ValueError("need 0 <= max_deviation < nominal_freq")
        if not 0 <= self.delay_std < math.inf:
            raise ValueError("delay_std must be non-negative and finite")
        if not self.protocols or any(p not in PROTOCOLS for p in self.protocols):
            raise ValueError(f"protocols must be a non-empty subset of {PROTOCOLS}")
        if len(set(self.protocols)) != len(self.protocols):
            raise ValueError("duplicate protocol")
        if self.step_policy not in ("fixed", "adaptive"):
            raise ValueError("step_policy must be 'fixed' or 'adaptive'")
        if self.phase_mode not in ("aligned", "random", "staggered"):
            raise ValueError("phase_mode must be 'aligned', 'random' or 'staggered'")
        if not 0 <= self.drop_probability < 1:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.sample_period is not None and not 0 < self.sample_period < math.inf:
            raise ValueError("sample_period must be positive and finite")
        if isinstance(self.step_size, dict) and (bad := set(self.step_size) - set(self.protocols)):
            raise ValueError(f"step_size keys {sorted(bad, key=repr)} are not in {self.protocols}")
        if isinstance(self.drift, dict) and (bad := set(self.drift) - set(self.topology.nodes)):
            raise ValueError(f"drift keys {sorted(bad, key=repr)} are not topology nodes")

    def resolved_step_size(self, protocol: str) -> float:
        """Fixed value, or the adaptive initial step (default: half the bound)."""
        limit = step_size_limit(protocol, self.beacon_period, self.nominal_freq)
        raw = self.step_size
        if isinstance(raw, dict):
            raw = raw.get(protocol)
        if raw is None:
            if self.step_policy == "fixed":
                raise ValueError("fixed step policy needs an explicit step_size")
            return limit / 2.0
        step = float(raw)
        if self.step_policy == "fixed" and not 0 < step < limit:
            raise ValueError(
                f"fixed step_size {step} outside the stable region (0, {limit}) for {protocol}"
            )
        if self.step_policy == "adaptive" and not 0 < step <= limit:
            raise ValueError(
                f"adaptive initial step_size {step} outside (0, {limit}] for {protocol}"
            )
        return step


@dataclass(frozen=True)
class SyncEvent:
    """One accepted sync message: who corrected, by how much, with what step.

    ``step_size`` is the gain over the error scale: a fixed step up to an ulp.
    """

    time: float
    node: int
    protocol: str
    seq: int
    error: float
    step_size: float
    rate_multiplier: float


@dataclass
class SkewTrace:
    """Sampled logical readings (and rates) for every node and protocol."""

    times: np.ndarray
    node_ids: tuple[int, ...]
    protocols: tuple[str, ...]
    readings: dict[str, np.ndarray]  # (samples, nodes) logical ticks
    rate_multipliers: dict[str, np.ndarray]
    hw_rates: np.ndarray  # (samples, nodes) instantaneous hardware frequency
    meta: dict = field(default_factory=dict)
    update_log: tuple = field(default=((), (), ()), repr=False)  # (deliveries, logs, scales)

    def node_column(self, node: int) -> int:
        return self.node_ids.index(node)

    def global_skew(self, protocol: str) -> np.ndarray:
        vals = self.readings[protocol]
        return vals.max(axis=1) - vals.min(axis=1)

    @cached_property
    def events(self) -> list[SyncEvent]:
        """Every accepted update, read from the update log: by delivery, then by protocol."""
        deliveries, logs, scales = self.update_log
        events = []
        for j in range(0, len(deliveries), 4):
            t, i, seq, _ = deliveries[j:j + 4]
            for p, log, scale in zip(self.protocols, logs, scales):
                _, rate, error, gain = log[j:j + 4]
                events.append(SyncEvent(t, self.node_ids[int(i)], p, int(seq), error,
                                        gain / scale, rate))
        return events

    def node_events(self, node: int, protocol: str) -> list[SyncEvent]:
        return [e for e in self.events if e.node == node and e.protocol == protocol]


def convergence_time(times, skew, threshold: float) -> float | None:
    """First instant after which ``skew`` stays at or below ``threshold``.

    Returns None when the series is still above the threshold at its end.
    An all-quiet series converges at its first sample instant.
    """
    times = np.asarray(times, dtype=float)
    skew = np.asarray(skew, dtype=float)
    if times.shape != skew.shape or times.size == 0:
        raise ValueError("times and skew must be equal-length, non-empty")
    above = np.nonzero(skew > threshold)[0]
    if above.size == 0:
        return float(times[0])
    last_bad = above[-1]
    if last_bad == len(times) - 1:
        return None
    return float(times[last_bad + 1])


def _drift_for_node(config: SimConfig, node: int, rng: np.random.Generator):
    spec = config.drift
    if isinstance(spec, dict):
        spec = spec.get(node, ConstantDrift(0.0))
    if isinstance(spec, str):
        if spec == WHITE_DRIFT:
            return WhiteDrift(config.max_deviation, rng)
        if spec == RANDOM_CONSTANT_DRIFT:
            dev = float(rng.uniform(-config.max_deviation, config.max_deviation))
            return ConstantDrift(dev)
        raise ValueError(f"unknown drift spec: {spec!r}")
    if isinstance(spec, DriftModel):
        return spec
    raise ValueError(f"unknown drift spec: {spec!r}")


def _draws(draw_block):
    """Values of ``draw_block(1024)`` arrays in turn: a Generator's scalar draws, in order."""
    return itertools.chain.from_iterable(iter(lambda: draw_block(1024).tolist(), None))


def _assemble(start, deliveries, log, times, hw, readings, rates) -> None:
    """Fill one protocol's ``readings`` and ``rates`` from its clocks and update log.

    ``start`` holds the (value, rate, hw_at) clocks the nodes start with,
    ``deliveries`` and ``log`` the update log (see the module docstring), an
    update leaving the clock (received, rate, hw), and ``hw`` the (samples,
    nodes) hardware readings at ``times``.  A sample at t reads ``value + rate *
    (hw - hw_at)`` of the latest update before t, as ``LogicalClock.read`` does.
    """
    rows, n = hw.shape
    deliveries = np.frombuffer(deliveries).reshape(-1, 4)
    log = np.frombuffer(log).reshape(-1, 4)
    table = np.concatenate((start, np.column_stack((log[:, :2], deliveries[:, 3]))))
    keys = np.searchsorted(times, deliveries[:, 0], "right") * n + deliveries[:, 1].astype(int)
    seen = keys < rows * n  # key k * n + node: k is the first sample that sees the update
    # pick[r, i]: row of ``table`` holding node i's clock at sample r.
    # Later updates have larger table rows, so a running maximum down each
    # column selects the latest update a sample sees.
    pick = np.zeros((rows, n), dtype=np.int64)
    pick[0] = np.arange(n)
    np.maximum.at(pick.reshape(-1), keys[seen], np.arange(n, len(table))[seen])
    np.maximum.accumulate(pick, axis=0, out=pick)
    value, rate, hw_at = table.T
    np.subtract(hw, hw_at[pick], out=readings)
    early = readings < 0  # exactly where hw < hw_at
    if early.any():
        r, i = np.argwhere(early)[0]
        raise read_before_update(hw[r, i], hw_at[pick[r, i]])
    np.take(rate, pick, out=rates)
    readings *= rates
    readings += value[pick]


def _spread(values: list, skip: int) -> tuple[float, float, float]:
    """(min, median, max) of ``values`` without position ``skip``; NaNs if none is left."""
    rest = sorted(values[:skip] + values[skip + 1:])
    return (rest[0], _median(np.array(rest)), rest[-1]) if rest else (math.nan,) * 3


def run(config: SimConfig) -> SkewTrace:
    """Run the event simulation and return the sampled trace.

    ``meta["deliveries"]`` counts every message a receiver's noise was drawn
    for as ``accepted``, ``stale`` or ``dropped``.  ``stale`` includes every
    delivery to the reference, which always holds the newest flood, not only
    repeated floods.  ``meta["phase_s"]`` holds the seconds of set-up, the
    event loop and trace assembly.  ``meta["final_state"]`` gives each
    protocol's (min, median, max) step size and rate multiplier over the
    nodes but the reference at the end (NaNs if there are none), and
    ``meta["lanes"]`` the protocols of each lane.  Raises ContractViolation
    annotated with node id and event time if an update breaks its contract, a
    driven rate told as the lane's first protocol, in its step units.
    """
    run_start = time.perf_counter()
    topo = config.topology
    nodes = tuple(sorted(topo.nodes))
    b, f0 = config.beacon_period, config.nominal_freq
    round_ticks = b * f0
    n = len(nodes)
    n_samples, sample_period = sample_grid(config.duration, b, config.sample_period)
    check_budget(CELLS, "nodes", n, lambda k: k * n_samples,
                 f" for duration={config.duration:g} sampled every {sample_period:g}",
                 least=1, other="duration")

    ss = np.random.SeedSequence(config.seed)
    phase_ss, delay_ss, drop_ss, drift_ss = ss.spawn(4)
    phase_rng = np.random.default_rng(phase_ss)
    delay_rng = np.random.default_rng(delay_ss)
    drop_rng = np.random.default_rng(drop_ss)

    if config.phase_mode == "random":
        phases = phase_rng.uniform(0.0, round_ticks, n)
    elif config.phase_mode == "staggered":
        # Beacon offsets ordered by hop distance, so each round's sync wave
        # sweeps the whole tree reference-outward within a single beacon
        # period (the synchronous-update schedule round-based analyses assume).
        # A start offset of ``phase`` ticks moves a node's beacon instants
        # *earlier* by phase/f0, hence the reversed ramp.
        hops = topo.hops_from_reference()
        span = max(hops.values()) + 1
        phases = np.array(
            [((span - hops[u]) % span) * round_ticks / span for u in nodes]
        )
    else:
        phases = np.zeros(n)

    adaptive = config.step_policy == "adaptive"
    duration, p_drop = config.duration, config.drop_probability
    # Node state lives in lists indexed by the node's position in ``nodes``,
    # which orders beacons exactly as node ids do.
    index = {u: i for i, u in enumerate(nodes)}
    ref = index[topo.reference]
    drifts = [_drift_for_node(config, u, np.random.default_rng(child))
              for u, child in zip(nodes, drift_ss.spawn(n))]
    times = np.arange(n_samples) * sample_period
    clocks = ClockTable(f0, drifts, phases, max(duration, times[-1]))
    neighbors = [tuple([index[v] for v in topo.neighbors(u)]) for u in nodes]
    # A lane: its slot in a beacon's readings, protocols, flat node state (value, rate,
    # hw_at, gain, error), update log and first protocol's update rule (looked up here,
    # at run time).  Clocks start at their hardware reading.
    handler = {GRADES: grades_on_message, PISYNC: pisync_on_message}
    scales = {p: error_scale(p, b, f0) for p in config.protocols}
    keys = {p: config.resolved_step_size(p) * scales[p] for p in config.protocols}
    groups = {key: tuple([p for p in keys if keys[p] == key]) for key in keys.values()}
    gain_max = gain_limit(b, f0)
    hw0 = phases.tolist()  # each clock's reading at t = 0
    lanes = [(i, names, list(hw0), [1.0] * n, list(hw0), [gain] * n, [0.0] * n, array("d"),
              handler[names[0]]) for i, (gain, names) in enumerate(groups.items())]
    lane_of = {p: lane for p in config.protocols for lane in lanes if p in lane[1]}
    clock_lists = [lane[2:5] for lane in lanes]
    deliveries = array("d")  # (t, node position, seq, hw) of each accepted delivery
    seqs = [0] * n  # the newest flood sequence number each node holds, for every lane
    # Receiver noise (and drop) draws, taken in blocks and used in draw order.
    noises = _draws(partial(delay_rng.normal, 0.0, config.delay_std))
    drops = _draws(drop_rng.random)
    # Every beacon up to ``duration``: a node beacons each time its clock
    # reaches a multiple of round_ticks above its start reading.
    beacons = clocks.crossings((np.floor(phases / round_ticks) + 1) * round_ticks, round_ticks,
                               duration)
    stale = dropped = 0
    setup_end = time.perf_counter()

    # One instant t at a time, as the module docstring states.
    try:
        for t, instant in itertools.groupby(beacons, key=itemgetter(0)):
            sent = []
            for _, who, hw in instant:
                seq = seqs[who]
                if who == ref:
                    seq = seqs[who] = seq + 1
                readings = None
                for v in neighbors[who]:
                    # Each receiver sees the same readings plus its own noise draw.
                    noise = next(noises)
                    if p_drop > 0 and next(drops) < p_drop:
                        dropped += 1
                        continue
                    if seq <= seqs[v]:  # stale already: sequence numbers only grow
                        stale += 1
                        continue
                    if readings is None:  # the sender's readings, read once
                        if who == ref:  # the reference advertises its hardware clock
                            readings = [hw] * len(lanes)
                        else:
                            readings = []
                            for values, rates, hw_ats in clock_lists:
                                if hw < hw_ats[who]:  # LogicalClock.read, inline
                                    raise read_before_update(hw, hw_ats[who])
                                readings.append(values[who] + rates[who] * (hw - hw_ats[who]))
                    sent.append((v, seq, readings, noise * f0))
            # A delivery changes only its receiver's state and draws nothing.
            for who, seq, readings, noise in sent:
                if seq <= seqs[who]:  # stale: a flood this instant already brought
                    stale += 1
                    continue
                seqs[who] = seq
                hw = clocks.read(who, t)
                deliveries.fromlist([t, who, seq, hw])
                for i, names, values, rates, hw_ats, gains, errors, log, rule in lanes:
                    received = readings[i] + noise
                    error, gain, rate = rule(values[who], rates[who], hw_ats[who], gains[who],
                                             errors[who], received, hw, gain_max, adaptive)
                    values[who], rates[who], hw_ats[who] = received, rate, hw
                    gains[who], errors[who] = gain, error
                    log.fromlist([received, rate, error, gain])
    except DrivenRate as err:  # told in the lane's first protocol's step units and in rounds
        text = err.text("step size", scales[names[0]], "{:.9g} rounds", round_ticks)
        raise ContractViolation(f"node {nodes[who]} at t={t:.9g}: {names[0]} {text}") from err
    except ContractViolation as err:
        raise ContractViolation(f"node {nodes[who]} at t={t:.9g}: {err}") from err
    loop_end = time.perf_counter()
    hw_grid, hw_rates_out = clocks.sample(np.arange(n), times[:, None])
    start = np.array([hw0, [1.0] * n, hw0]).T
    readings_out, rates_out = {}, {}
    for _, (first, *others), *_, log, _ in lanes:
        readings_out[first], rates_out[first] = np.empty_like(hw_grid), np.empty_like(hw_grid)
        _assemble(start, deliveries, log, times, hw_grid, readings_out[first], rates_out[first])
        for p in others:  # copies, so that editing one protocol's arrays edits no other's
            readings_out[p], rates_out[p] = readings_out[first].copy(), rates_out[first].copy()
    assembly_end = time.perf_counter()

    return SkewTrace(
        times=times,
        node_ids=nodes,
        protocols=tuple(config.protocols),
        readings=readings_out,
        rate_multipliers=rates_out,
        hw_rates=hw_rates_out,
        meta={
            # Normalized units are B = 1 and f0 = 1: time and clock values count rounds.
            "unit_mode": "normalized" if (b, f0) == (1.0, 1.0) else "physical",
            "seed": config.seed,
            "beacon_period": b,
            "nominal_freq": f0,
            "deliveries": {"accepted": len(deliveries) // 4, "stale": stale, "dropped": dropped},
            "phase_s": {"setup": setup_end - run_start, "loop": loop_end - setup_end,
                        "assembly": assembly_end - loop_end},
            "final_state": {p: {"step_size": _spread([g / scales[p] for g in lane[5]], ref),
                                "rate_multiplier": _spread(lane[3], ref)}
                            for p, lane in lane_of.items()},
            "lanes": tuple([lane[1] for lane in lanes]),
        },
        update_log=(deliveries, tuple([lane[7] for lane in lane_of.values()]),
                    tuple(scales.values())),
    )


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[tuple[int, int, float], ...]  # (diameter, seed, steady mean skew)
    aggregate: dict[int, tuple[float, float]]  # diameter -> (mean, std over seeds)


def steady_mean_skew(trace: SkewTrace, protocol: str) -> float:
    """Mean global skew over the second half of the trace."""
    skew = trace.global_skew(protocol)
    mask = trace.times >= trace.times[-1] * 0.5
    return float(skew[mask].mean())


def scaling_experiment(
    diameters,
    seeds,
    *,
    max_deviation: float = 1e-4,
    delay_std: float = 1e-4,
    step_size: float = 0.05,
    rounds: int = 200,
) -> ScalingResult:
    """Steady global skew of grades on reference-rooted lines of growing diameter.

    For each (diameter, seed) pair a line of diameter+1 nodes with white drift
    and unit beacon period and nominal frequency is run for ``rounds`` rounds,
    and the mean global skew over the second half of the run recorded.

    Beacons are staggered by hop distance so each round's sync wave sweeps
    the chain end to end within one beacon period.  That is the schedule
    under which neighbouring nodes inherit the *same* upstream noise
    realization and per-hop errors accumulate as a spatial random walk — the
    regime the square-root-of-diameter growth law describes.  Free-running
    ("random") phases add a full refresh of relay state per hop of propagation
    lag, which decorrelates the nodes and steepens the measured growth.
    """
    if len({int(d) for d in diameters}) < len(diameters):
        raise ValueError(f"diameters must not repeat, got {tuple(diameters)}")
    samples = sample_grid(rounds, 1.0)[0]
    check_budget(CELLS, "diameters", max([int(d) for d in diameters], default=0),
                 lambda d: (d + 1) * samples, f" for rounds={rounds}", least=1, other="rounds")
    seed_rounds = rounds * sum([int(d) + 1 for d in diameters])  # node-rounds of one seed
    try:
        count = len(seeds)
    except OverflowError:  # a range longer than sys.maxsize
        count = (seeds[-1] - seeds[0]) // seeds.step + 1
    check_budget(NODE_ROUNDS, "seeds", count, lambda s: s * seed_rounds,
                 f" for rounds={rounds} and diameters={tuple(diameters)}", least=1,
                 other="rounds")
    rows = []
    for d in diameters:
        for seed in seeds:
            config = SimConfig(
                topology=Topology.line(int(d) + 1),
                beacon_period=1.0,
                duration=float(rounds),
                max_deviation=max_deviation,
                delay_std=delay_std,
                drift=WHITE_DRIFT,
                protocols=(GRADES,),
                step_policy="fixed",
                step_size=step_size,
                phase_mode="staggered",
                seed=int(seed),
            )
            rows.append((int(d), int(seed), steady_mean_skew(run(config), GRADES)))
    aggregate = {}
    for d in diameters:
        vals = np.array([m for dd, _, m in rows if dd == d])
        aggregate[int(d)] = (float(vals.mean()), float(vals.std(ddof=1) if len(vals) > 1 else 0.0))
    return ScalingResult(rows=tuple(rows), aggregate=aggregate)


def fit_power_exponent(aggregate: dict[int, tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope/intercept of log(mean skew) against log(diameter)."""
    ds = np.array(sorted(aggregate))
    means = np.array([aggregate[int(d)][0] for d in ds])
    if np.any(means <= 0):
        raise ValueError("cannot fit a power law through non-positive skews")
    slope, intercept = np.polyfit(np.log(ds), np.log(means), 1)
    return float(slope), float(intercept)


def _fmt(x) -> str:
    return f"{x:.9g}" if isinstance(x, float) else str(x)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty array (NaN if any value is), without its numpy.ma import."""
    ordered = np.sort(values)  # NaNs sort last
    mid = len(ordered) // 2
    if math.isnan(ordered[-1]):
        return math.nan
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _write_head(fh, columns, comments) -> None:
    fh.write("".join([f"# {c}\n" for c in comments]) + ",".join(columns) + "\n")


def write_csv(path, columns, rows, comments=()) -> None:
    """``# comment`` lines, a header, then one line per row (floats as %.9g), streamed."""
    with open(path, "w") as fh:
        _write_head(fh, columns, comments)
        for row in rows:
            fh.write(",".join([_fmt(v) for v in row]) + "\n")


def _meta_comments(trace: SkewTrace) -> list[str]:
    keys = ("unit_mode", "seed", "beacon_period", "nominal_freq")
    return [f"{k}={trace.meta[k]}" for k in keys if k in trace.meta]


def write_trace_csv(trace: SkewTrace, path) -> None:
    """Per-node logical readings: t_seconds,node_id,protocol,logical_ticks.

    Streamed a sample row at a time, each from one %-template built once, with
    a line per protocol and node and the time left as NUL, filled in by one ``%``.
    """
    with open(path, "w") as fh:
        _write_head(
            fh, ("t_seconds", "node_id", "protocol", "logical_ticks"), _meta_comments(trace)
        )
        template = "".join([f"\0,{u},{p},%.9g\n" for p in trace.protocols for u in trace.node_ids])
        for i, t in enumerate(trace.times):
            row = sum([trace.readings[p][i].tolist() for p in trace.protocols], [])
            fh.write(template.replace("\0", _fmt(t)) % tuple(row))


def write_skew_csv(trace: SkewTrace, path) -> None:
    """Global skew series: t_seconds,protocol,global_skew_ticks."""
    skews = {p: trace.global_skew(p) for p in trace.protocols}
    rows = ((t, p, skews[p][i]) for i, t in enumerate(trace.times) for p in trace.protocols)
    write_csv(path, ("t_seconds", "protocol", "global_skew_ticks"), rows, _meta_comments(trace))
