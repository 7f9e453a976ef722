"""Deterministic event-driven network simulator for the sync protocols.

Every node owns a drifting hardware clock and one logical-clock state per
enabled protocol.  A node broadcasts whenever its *own* hardware clock
crosses a multiple of beacon_period * nominal_freq ticks; the reference node
stamps each of its broadcasts with a fresh flood sequence number.  Broadcasts
are delivered to every neighbor at the emission instant, with an independent
Gaussian noise draw per receiver added to the payload clock values (noise
perturbs the reported value, not the delivery time, so negative draws are
fine).

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
from collections import deque
from dataclasses import dataclass, field
from functools import partial

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

_KIND_SAMPLE = 0  # keyed under pseudo-node 0
_KIND_BEACON = 0
_KIND_RECEIVE = 1

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
            raise ValueError("node ids must be positive (0 is reserved)")
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
        if len(self.nodes) > 1 and self._hops().keys() != known:
            raise ValueError("topology must be connected")

    @staticmethod
    def line(n: int, reference: int = 1) -> "Topology":
        if n < 1:
            raise ValueError("need at least one node")
        nodes = tuple(range(1, n + 1))
        edges = tuple((i, i + 1) for i in range(1, n))
        return Topology(nodes=nodes, edges=edges, reference=reference)

    def neighbors(self, u: int) -> tuple[int, ...]:
        adj = sorted(v for a, b in self.edges for v, w in ((a, b), (b, a)) if w == u)
        return tuple(adj)

    def _hops(self) -> dict[int, int]:
        dist = {self.reference: 0}
        queue = deque([self.reference])
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def hops_from_reference(self) -> dict[int, int]:
        return self._hops()


@dataclass(frozen=True)
class SimConfig:
    topology: Topology
    beacon_period: float
    duration: float
    nominal_freq: float = 1.0
    max_deviation: float = 0.0
    delay_std: float = 0.0
    unit_mode: str = "normalized"
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
        if self.beacon_period <= 0 or self.duration <= 0 or self.nominal_freq <= 0:
            raise ValueError("beacon_period, duration and nominal_freq must be positive")
        if not 0 <= self.max_deviation < self.nominal_freq:
            raise ValueError("need 0 <= max_deviation < nominal_freq")
        if self.delay_std < 0:
            raise ValueError("delay_std must be non-negative")
        if self.unit_mode not in ("normalized", "physical"):
            raise ValueError("unit_mode must be 'normalized' or 'physical'")
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
        if self.sample_period is not None and self.sample_period <= 0:
            raise ValueError("sample_period must be positive")

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


def global_skew(readings) -> float:
    """Spread (max - min) of a collection of simultaneous logical readings."""
    arr = np.asarray(readings, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one reading")
    return float(arr.max() - arr.min())


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


def run(config: SimConfig) -> SkewTrace:
    """Run the event simulation and return the sampled trace.

    Raises ContractViolation annotated with node id and event time if a
    protocol update breaks its contract (e.g. a mis-scaled step size).
    """
    topo = config.topology
    nodes = tuple(sorted(topo.nodes))
    ref = topo.reference
    b, f0 = config.beacon_period, config.nominal_freq
    round_ticks = b * f0
    sample_period = config.sample_period if config.sample_period is not None else b / 3.0

    ss = np.random.SeedSequence(config.seed)
    phase_ss, delay_ss, drop_ss, drift_ss = ss.spawn(4)
    phase_rng = np.random.default_rng(phase_ss)
    delay_rng = np.random.default_rng(delay_ss)
    drop_rng = np.random.default_rng(drop_ss)
    drift_children = drift_ss.spawn(len(nodes))

    if config.phase_mode == "random":
        phases = phase_rng.uniform(0.0, round_ticks, len(nodes))
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
        phases = np.zeros(len(nodes))

    clocks: dict[int, HardwareClock] = {}
    neighbors: dict[int, tuple[int, ...]] = {}
    states: dict[str, dict[int, SyncState]] = {p: {} for p in config.protocols}
    next_target: dict[int, float] = {}
    adaptive = config.step_policy == "adaptive"
    init_steps = {p: config.resolved_step_size(p) for p in config.protocols}

    for i, u in enumerate(nodes):
        drift = _drift_for_node(config, u, np.random.default_rng(drift_children[i]))
        clocks[u] = HardwareClock(
            nominal_freq=f0,
            max_deviation=config.max_deviation,
            drift=drift,
            start_ticks=float(phases[i]),
            quantize=config.quantize_ticks,
        )
        neighbors[u] = topo.neighbors(u)
        lc = LogicalClock(
            value_at_update=float(phases[i]), rate_multiplier=1.0, hw_at_update=float(phases[i])
        )
        for proto in config.protocols:
            states[proto][u] = SyncState(step_size=init_steps[proto], clock=lc)
        next_target[u] = (math.floor(phases[i] / round_ticks) + 1) * round_ticks

    counter = itertools.count()
    heap: list[tuple] = []
    for u in nodes:
        t_first = clocks[u].time_of_tick(next_target[u])
        if t_first <= config.duration:
            heapq.heappush(heap, (t_first, u, _KIND_BEACON, next(counter), None))
    n_samples = int(math.floor(config.duration / sample_period + 1e-9)) + 1
    sample_times = [k * sample_period for k in range(n_samples)]
    for t in sample_times:
        heapq.heappush(heap, (t, 0, _KIND_SAMPLE, next(counter), None))

    times_out: list[float] = []
    readings_out = {p: [] for p in config.protocols}
    rates_out = {p: [] for p in config.protocols}
    hw_rates_out: list[list[float]] = []
    events: list[SyncEvent] = []
    handler = {GRADES: grades_on_message, PISYNC: pisync_on_message}
    lanes = [(i, p, states[p], handler[p]) for i, p in enumerate(config.protocols)]

    while heap:
        t, who, kind, _, payload = heapq.heappop(heap)

        if who == 0:  # trace sample
            row_r = {p: [] for p in config.protocols}
            row_m = {p: [] for p in config.protocols}
            row_hw = []
            for u in nodes:
                clk = clocks[u]
                clk.advance_to(t)
                hw = clk.read()
                row_hw.append(f0 + clk.drift.deviation_rate(t))
                for proto in config.protocols:
                    st = states[proto][u]
                    row_r[proto].append(st.clock.read(hw))
                    row_m[proto].append(st.clock.rate_multiplier)
            times_out.append(t)
            hw_rates_out.append(row_hw)
            for proto in config.protocols:
                readings_out[proto].append(row_r[proto])
                rates_out[proto].append(row_m[proto])
            continue

        if kind == _KIND_BEACON:
            clk = clocks[who]
            clk.advance_to(t)
            hw = clk.read()
            try:
                own, out = on_beacon_tick(
                    tuple(states[p][who] for p in config.protocols),
                    sender=who,
                    is_reference=(who == ref),
                    hw_now=hw,
                )
            except ContractViolation as err:
                raise ContractViolation(f"node {who} at t={t:.9g}: {err}") from err
            for proto, st in zip(config.protocols, own):
                states[proto][who] = st
            for v in neighbors[who]:
                noise = delay_rng.normal(0.0, config.delay_std) * f0
                if config.drop_probability > 0 and drop_rng.random() < config.drop_probability:
                    continue
                # Each receiver sees the same message plus its own noise draw.
                heapq.heappush(heap, (t, v, _KIND_RECEIVE, next(counter), (out, noise)))
            next_target[who] += round_ticks
            t_next = clk.time_of_tick(next_target[who])
            if t_next <= config.duration:
                heapq.heappush(heap, (t_next, who, _KIND_BEACON, next(counter), None))
            continue

        # reception
        if who == ref:
            continue  # the reference never adjusts itself
        clk = clocks[who]
        clk.advance_to(t)
        hw = clk.read()
        msg, noise = payload
        for i, proto, node_states, update in lanes:
            st = node_states[who]
            received = msg.readings[i] + noise
            accepted = msg.seq > st.seq
            error = compute_error(st.clock.read(hw), received) if accepted else 0.0
            try:
                new = update(st, msg.seq, received, hw, b, f0, adapt=adaptive)
            except ContractViolation as err:
                raise ContractViolation(f"node {who} at t={t:.9g}: {err}") from err
            node_states[who] = new
            if accepted and config.record_events:
                events.append(
                    SyncEvent(
                        time=t,
                        node=who,
                        protocol=proto,
                        seq=msg.seq,
                        error=error,
                        step_size=new.step_size,
                        rate_multiplier=new.clock.rate_multiplier,
                    )
                )

    return SkewTrace(
        times=np.asarray(times_out),
        node_ids=nodes,
        protocols=tuple(config.protocols),
        readings={p: np.asarray(v) for p, v in readings_out.items()},
        rate_multipliers={p: np.asarray(v) for p, v in rates_out.items()},
        hw_rates=np.asarray(hw_rates_out),
        events=events,
        meta={
            "unit_mode": config.unit_mode,
            "seed": config.seed,
            "beacon_period": b,
            "nominal_freq": f0,
        },
    )


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[tuple[int, int, float], ...]  # (diameter, seed, steady mean skew)
    aggregate: dict[int, tuple[float, float]]  # diameter -> (mean, std over seeds)


def steady_mean_skew(trace: SkewTrace, protocol: str, burn_fraction: float = 0.5) -> float:
    """Mean global skew over the trailing (1 - burn_fraction) of the trace."""
    skew = trace.global_skew(protocol)
    cutoff = trace.times[-1] * burn_fraction
    mask = trace.times >= cutoff
    return float(skew[mask].mean())


def scaling_experiment(
    diameters,
    seeds,
    *,
    beacon_period: float = 1.0,
    nominal_freq: float = 1.0,
    max_deviation: float = 1e-4,
    delay_std: float = 1e-4,
    step_size: float = 0.05,
    rounds: int = 200,
    protocol: str = GRADES,
    drift: object = WHITE_DRIFT,
    burn_fraction: float = 0.5,
    phase_mode: str = "staggered",
) -> ScalingResult:
    """Steady global skew on reference-rooted lines of growing diameter.

    For each (diameter, seed) pair a line of diameter+1 nodes is run for
    ``rounds`` beacon periods and the mean post-burn-in global skew recorded.

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
                beacon_period=beacon_period,
                duration=rounds * beacon_period,
                nominal_freq=nominal_freq,
                max_deviation=max_deviation,
                delay_std=delay_std,
                drift=drift,
                protocols=(protocol,),
                step_policy="fixed",
                step_size=step_size,
                phase_mode=phase_mode,
                seed=int(seed),
                record_events=False,
            )
            rows.append((int(d), int(seed), steady_mean_skew(run(config), protocol, burn_fraction)))
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
    return f"{x:.9g}"


def _meta_comments(meta: dict) -> list[str]:
    keys = ("unit_mode", "seed", "beacon_period", "nominal_freq")
    return [f"# {k}={meta[k]}" for k in keys if k in meta]


def write_trace_csv(trace: SkewTrace, path) -> None:
    """Per-node logical readings: t_seconds,node_id,protocol,logical_ticks."""
    lines = _meta_comments(trace.meta)
    lines.append("t_seconds,node_id,protocol,logical_ticks")
    for i, t in enumerate(trace.times):
        for proto in trace.protocols:
            row = trace.readings[proto][i]
            for j, u in enumerate(trace.node_ids):
                lines.append(f"{_fmt(t)},{u},{proto},{_fmt(row[j])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_skew_csv(trace: SkewTrace, path) -> None:
    """Global skew series: t_seconds,protocol,global_skew_ticks."""
    lines = _meta_comments(trace.meta)
    lines.append("t_seconds,protocol,global_skew_ticks")
    skews = {p: trace.global_skew(p) for p in trace.protocols}
    for i, t in enumerate(trace.times):
        for proto in trace.protocols:
            lines.append(f"{_fmt(t)},{proto},{_fmt(skews[proto][i])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
