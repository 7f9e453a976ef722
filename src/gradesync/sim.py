"""Deterministic event-driven network simulator for the sync protocols.

Every node owns a drifting hardware clock and one logical-clock state per
enabled protocol.  A node broadcasts whenever its *own* hardware clock
crosses a multiple of beacon_period * nominal_freq ticks; the reference node
stamps each of its broadcasts with a fresh flood sequence number.  Broadcasts
are delivered to every neighbor at the emission instant, with an independent
Gaussian noise draw per receiver added to the payload clock values (noise
perturbs the reported value, not the delivery time, so negative draws are
fine).  A delivery whose sequence number the receiver already holds (a stale
flood) never enters the event queue: its only effect would be to move the
receiver's hardware clock to the emission instant, which is done at once.

A trace sample only advances the hardware clocks and keeps their readings.
The logical readings and rate multipliers are assembled from a log of the
accepted updates with whole-array numpy, a block of sample rows at a time,
with the same arithmetic as ``LogicalClock.read``.

Determinism: all randomness comes from numpy generators spawned off a single
SeedSequence(config.seed), one stream per purpose (phases, delays, drops, one
drift stream per node).  Simultaneous events are ordered by
(time, node id, event kind, insertion index) with beacons ranked before
receptions, so a node's beacon at time t always carries its pre-reception
state and floods propagate one hop per round even with perfectly aligned
clocks.  Identical configs produce bit-identical traces, and a protocol's
trace does not depend on which other protocols are enabled alongside it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .clocks import ConstantDrift, HardwareClock, LogicalClock, PiecewiseDrift, WhiteDrift
from .errors import ContractViolation
from .protocols import (
    GRADES,
    PISYNC,
    PROTOCOLS,
    SyncState,
    compute_error,
    on_beacon_tick,
    on_message,
    step_size_limit,
)

# Drift spec strings accepted by SimConfig.drift (besides explicit models).
WHITE_DRIFT = "white"
RANDOM_CONSTANT_DRIFT = "random-constant"

_KIND_BEACON = 0
_KIND_RECEIVE = 1

# Largest trace grid (samples x nodes) a run may ask for.  Each protocol's
# readings and rates take 8 bytes a cell, so this is 160 MB per array; a
# 2,000-node line over 20 rounds needs 122k cells, a 10,000-node one 610k.
MAX_SAMPLE_CELLS = 2 * 10**7
# Readings are assembled from the update log this many cells (sample rows x
# nodes) at a time, which bounds both the log and the assembly's temporaries.
_BLOCK_CELLS = 1 << 12

# The update rule bound to each protocol.  ``run`` looks these names up when
# it starts, so each protocol's updates can be wrapped and counted on their own.
grades_on_message = partial(on_message, GRADES)
pisync_on_message = partial(on_message, PISYNC)


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
    quantize_ticks: bool = False
    record_events: bool = True
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
                f"fixed step {step} outside the stable region (0, {limit}) for {protocol}"
            )
        if self.step_policy == "adaptive" and not 0 < step <= limit:
            raise ValueError(f"adaptive initial step {step} outside (0, {limit}] for {protocol}")
        return step


@dataclass(frozen=True)
class SyncEvent:
    """One accepted sync message: who corrected, by how much, with what step."""

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
    events: list[SyncEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def node_column(self, node: int) -> int:
        return self.node_ids.index(node)

    def global_skew(self, protocol: str) -> np.ndarray:
        vals = self.readings[protocol]
        return vals.max(axis=1) - vals.min(axis=1)

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
    if isinstance(spec, (ConstantDrift, PiecewiseDrift, WhiteDrift)):
        return spec
    raise ValueError(f"unknown drift spec: {spec!r}")


def _draws(draw_block):
    """Values of ``draw_block(1024)`` arrays in turn: a Generator's scalar draws, in order."""
    return itertools.chain.from_iterable(iter(lambda: draw_block(1024).tolist(), None))


def _assemble(carry, fields, keys, hw, k0, readings, rates) -> np.ndarray:
    """Fill the ``readings`` and ``rates`` rows k0.. of one block; return the clocks after it.

    ``carry`` is the (nodes, 3) array of the logical clocks in effect before
    row k0, ``fields``/``keys`` the update log since (see ``run``) and ``hw``
    the block's hardware readings.  A reading is ``value + rate * (hw - hw_at)``
    of the latest update that row sees, as ``LogicalClock.read`` computes it.
    """
    rows, n = hw.shape
    table = np.concatenate((carry, np.frombuffer(fields).reshape(-1, 3)))
    # pick[r, i]: row of ``table`` holding node i's clock at sample k0 + r.
    # Later updates have larger table rows, so a running maximum down each
    # column selects the latest update a sample sees.
    pick = np.zeros((rows, n), dtype=np.int64)
    pick[0] = np.arange(n)
    np.maximum.at(
        pick.reshape(-1), np.frombuffer(keys, dtype=np.int64) - k0 * n, np.arange(n, len(table))
    )
    np.maximum.accumulate(pick, axis=0, out=pick)
    value, rate, hw_at = table.T
    np.subtract(hw, hw_at[pick], out=readings)
    early = readings < 0  # exactly where hw < hw_at
    if early.any():
        r, i = np.argwhere(early)[0]
        raise ContractViolation(
            f"logical read at hw={hw[r, i]} before last update hw={hw_at[pick[r, i]]}"
        )
    np.take(rate, pick, out=rates)
    readings *= rates
    readings += value[pick]
    return table[pick[-1]]


def run(config: SimConfig) -> SkewTrace:
    """Run the event simulation and return the sampled trace.

    Raises ContractViolation annotated with node id and event time if a
    protocol update breaks its contract (e.g. a mis-scaled step size).
    """
    topo = config.topology
    nodes = tuple(sorted(topo.nodes))
    b, f0 = config.beacon_period, config.nominal_freq
    round_ticks = b * f0
    sample_period = config.sample_period if config.sample_period is not None else b / 3.0
    n = len(nodes)
    n_samples = math.floor(min(config.duration / sample_period, MAX_SAMPLE_CELLS) + 1e-9) + 1
    if n_samples * n > MAX_SAMPLE_CELLS:
        raise ValueError(
            f"duration={config.duration:g} over sample_period={sample_period:g} for {n} "
            f"nodes asks for more than {MAX_SAMPLE_CELLS} trace cells (samples x nodes); "
            "shorten duration or raise sample_period"
        )

    ss = np.random.SeedSequence(config.seed)
    phase_ss, delay_ss, drop_ss, drift_ss = ss.spawn(4)
    phase_rng = np.random.default_rng(phase_ss)
    delay_rng = np.random.default_rng(delay_ss)
    drop_rng = np.random.default_rng(drop_ss)
    drift_children = drift_ss.spawn(n)

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
    record_events = config.record_events
    # Node state lives in lists indexed by the node's position in ``nodes``;
    # heap keys carry that index, which orders events exactly as node ids do.
    index = {u: i for i, u in enumerate(nodes)}
    ref = index[topo.reference]
    clocks: list[HardwareClock] = []
    next_target: list[float] = []
    for i, u in enumerate(nodes):
        drift = _drift_for_node(config, u, np.random.default_rng(drift_children[i]))
        clocks.append(HardwareClock(f0, drift, float(phases[i]), config.quantize_ticks))
        next_target.append((math.floor(phases[i] / round_ticks) + 1) * round_ticks)
    neighbors = [tuple([index[v] for v in topo.neighbors(u)]) for u in nodes]
    # One lane per protocol: its slot in a message's readings, its name, every
    # node's state and its update rule (looked up here, at run time).  Logical
    # clocks start at their hardware reading, which quantize mode floors.
    handler = {GRADES: grades_on_message, PISYNC: pisync_on_message}
    hw_start = [clk.read() for clk in clocks]
    lanes = []
    for i, p in enumerate(config.protocols):
        step = config.resolved_step_size(p)
        start = [SyncState(step, clock=LogicalClock(hw, 1.0, hw)) for hw in hw_start]
        lanes.append((i, p, start, handler[p]))
    lane_states = [states for _, _, states, _ in lanes]
    # Receiver noise (and drop) draws, taken in blocks and used in draw order.
    noises = _draws(partial(delay_rng.normal, 0.0, config.delay_std))
    drops = _draws(drop_rng.random)

    counter = itertools.count()
    heap: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    for i, clk in enumerate(clocks):
        t_first = clk.time_of_tick(next_target[i])
        if t_first <= duration:
            push(heap, (t_first, i, _KIND_BEACON, next(counter), None, 0.0))
    sample_times = [k * sample_period for k in range(n_samples)]
    shape = (n_samples, n)
    readings_out = {p: np.empty(shape) for p in config.protocols}
    rates_out = {p: np.empty(shape) for p in config.protocols}
    hw_rates_out = np.empty(shape)
    events: list[SyncEvent] = []
    # A sample only moves the clocks and keeps their readings; the logical
    # readings of a block of rows are assembled once the block is full, from
    # the clock each node had before it and the updates accepted since.  A
    # lane's log holds each accepted clock's (value, rate, hw) fields and
    # k * n + node, where k is the first sample that sees the update.
    block_rows = max(1, _BLOCK_CELLS // n)
    hw_block = np.empty((min(block_rows, n_samples), n))
    logs = [(array("d"), array("q")) for _ in lanes]
    carry = [np.array([st.clock for st in states]) for states in lane_states]
    k0 = 0  # first row of the current block

    def take_sample(k: int) -> None:
        nonlocal k0
        t = sample_times[k]
        hw_block[k - k0] = [clk.advance_to(t) for clk in clocks]
        hw_rates_out[k] = [clk.deviation_rate(t) for clk in clocks]
        if k + 1 == min(k0 + block_rows, n_samples):
            for (i, proto, _, _), (fields, keys) in zip(lanes, logs):
                carry[i] = _assemble(
                    carry[i], fields, keys, hw_block[: k + 1 - k0], k0,
                    readings_out[proto][k0 : k + 1], rates_out[proto][k0 : k + 1],
                )
                del fields[:], keys[:]
            k0 = k + 1

    # A trace sample at time t is taken before every node event at t, so a
    # sample sees the state left by all earlier events and none of the later.
    k = 0
    while heap:
        t, who, kind, _, msg, noise = pop(heap)
        while k < n_samples and sample_times[k] <= t:
            take_sample(k)
            k += 1
        clk = clocks[who]
        hw = clk.advance_to(t)

        if kind == _KIND_BEACON:
            mine = tuple([states[who] for states in lane_states])
            try:
                own, out = on_beacon_tick(mine, who == ref, hw)
            except ContractViolation as err:
                raise ContractViolation(f"node {nodes[who]} at t={t:.9g}: {err}") from err
            if own is not mine:
                for states, st in zip(lane_states, own):
                    states[who] = st
            newest = lane_states[0]  # every lane holds the same sequence numbers
            for v in neighbors[who]:
                # Each receiver sees the same message plus its own noise draw.
                noise = next(noises) * f0
                if p_drop > 0 and next(drops) < p_drop:
                    continue
                if v == ref:  # the reference never adjusts itself
                    continue
                if out.seq <= newest[v].seq:
                    # Stale: delivering it would only move v's clock to t.  No
                    # sample or event before t is pending, so do that now.
                    clocks[v].advance_to(t)
                else:
                    push(heap, (t, v, _KIND_RECEIVE, next(counter), out, noise))
            next_target[who] += round_ticks
            t_next = clk.time_of_tick(next_target[who])
            if t_next <= duration:
                push(heap, (t_next, who, _KIND_BEACON, next(counter), None, 0.0))
            continue

        # reception
        seq, readings = msg
        for i, proto, states, update in lanes:
            st = states[who]
            received = readings[i] + noise
            try:
                new = update(st, seq, received, hw, b, f0, adaptive)
            except ContractViolation as err:
                raise ContractViolation(f"node {nodes[who]} at t={t:.9g}: {err}") from err
            if new is st:
                continue  # stale sequence number
            states[who] = new
            fields, keys = logs[i]
            fields.extend(new.clock)
            keys.append(k * n + who)
            if record_events:
                error = compute_error(st.clock.read(hw), received)
                events.append(SyncEvent(
                    t, nodes[who], proto, seq, error, new.step_size, new.clock.rate_multiplier
                ))
    while k < n_samples:
        take_sample(k)
        k += 1
    hw_rates_out += f0

    return SkewTrace(
        times=np.asarray(sample_times),
        node_ids=nodes,
        protocols=tuple(config.protocols),
        readings=readings_out,
        rate_multipliers=rates_out,
        hw_rates=hw_rates_out,
        events=events,
        meta={
            # Normalized units are B = 1 and f0 = 1, as in analysis.SystemParams.normalized.
            "unit_mode": "normalized" if (b, f0) == (1.0, 1.0) else "physical",
            "seed": config.seed,
            "beacon_period": b,
            "nominal_freq": f0,
        },
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
    phase_mode: str = "staggered",
) -> ScalingResult:
    """Steady global skew of grades on reference-rooted lines of growing diameter.

    For each (diameter, seed) pair a line of diameter+1 nodes with white drift
    and unit beacon period and nominal frequency is run for ``rounds`` rounds,
    and the mean global skew over the second half of the run recorded.

    Beacons are staggered by hop distance by default so each round's sync
    wave sweeps the chain end to end within one beacon period.  That is the
    schedule under which neighbouring nodes inherit the *same* upstream noise
    realization and per-hop errors accumulate as a spatial random walk — the
    regime the square-root-of-diameter growth law describes.  Free-running
    ("random") phases add a full refresh of relay state per hop of propagation
    lag, which decorrelates the nodes and steepens the measured growth.
    """
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
                phase_mode=phase_mode,
                seed=int(seed),
                record_events=False,
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

    Streamed one sample row at a time, each row formatted as one block: going
    value by value through ``write_csv`` is 2-3x slower on a 2,000-node line.
    """
    with open(path, "w") as fh:
        _write_head(
            fh, ("t_seconds", "node_id", "protocol", "logical_ticks"), _meta_comments(trace)
        )
        for i, t in enumerate(trace.times):
            prefix = _fmt(t)
            for proto in trace.protocols:
                row = trace.readings[proto][i].tolist()
                fh.write("".join(
                    [f"{prefix},{u},{proto},{v:.9g}\n" for u, v in zip(trace.node_ids, row)]
                ))


def write_skew_csv(trace: SkewTrace, path) -> None:
    """Global skew series: t_seconds,protocol,global_skew_ticks."""
    skews = {p: trace.global_skew(p) for p in trace.protocols}
    rows = ((t, p, skews[p][i]) for i, t in enumerate(trace.times) for p in trace.protocols)
    write_csv(path, ("t_seconds", "protocol", "global_skew_ticks"), rows, _meta_comments(trace))
