"""Deterministic event-driven network simulator for the sync protocols.

Every node owns a drifting hardware clock, the newest flood sequence number it
holds, a logical clock, a gain and its last sync error.  Both protocols apply
one rule, ``protocols.update``, with one gain bound, ``protocols.gain_limit``,
and start every node at ``step_fraction`` of that bound, so they run one
trajectory: ``run`` keeps it as five flat float lists by node position
(value, rate, hw_at, gain, error), updates them under the first protocol's
name, and its trace holds it once for all of them.  A gain becomes a
protocol's step size, the gain over its ``protocols.error_scale``, only in
``meta["final_state"]`` and in a driven-rate error.  A node broadcasts
whenever its *own* hardware clock, which starts below one round of
beacon_period * nominal_freq ticks, reaches a whole number of rounds; the
reference node stamps each broadcast with a fresh flood sequence number.
Broadcasts are delivered to every neighbor at the emission instant, with an
independent Gaussian noise draw per receiver added to the payload clock value
(noise perturbs the reported value, not the delivery time, so negative draws
are fine).  Each (beacon, neighbor) pair is a delivery slot, in send order;
``run`` draws every slot's noise (and drop) in one call before the first
beacon, the values one draw per receiver gives, and counts the drops at once.
A delivery is applied only if it carries a strictly newer sequence number than
the receiver holds; a stale one changes nothing.  Sequence numbers only grow,
so a delivery whose receiver holds its flood when it is sent is stale at once,
and a beacon of seq 0 (from a non-reference node with no flood yet) only moves
the slot index past its neighbors; any other sender but the reference checks
its clock against its last update and reads it once, before its slots.

There is no event queue: hardware readings are a pure function of time, so the
beacon schedule is known up front.  All clocks are one ``clocks.ClockTable``;
its ``crossings`` give every beacon's instant, sender and sender reading as
arrays in (time, node id) order, computed in one pass.  Trace samples touch no
clock: the hardware grid comes from the table after the loop, and the logical
readings from the update log, as ``value + rate * (hw - hw_at)``.  So
sampling changes no event of a run.  The log, one ``array('d')`` row (t, node
position, seq, hw, received, rate, error, gain) per accepted delivery, is the
one record of updates; ``SkewTrace.events`` reads it, one event per update.

Determinism: all randomness comes from numpy generators spawned off a single
SeedSequence(config.seed), one stream per purpose (phases, delays, drops, one
drift stream per node).  Each instant t is handled whole, and a sample at t sees
nothing of it: first every beacon due at t in node-id order, each built
from its sender's state before t and taking its receivers' noise and drop
slots in neighbor order, and last the deliveries those beacons made, in the
order they were sent; ``SkewTrace.events`` lists the accepted ones in that
order.  So a beacon always carries its sender's pre-instant state and floods
propagate one hop per round even with perfectly aligned clocks.  Identical
configs produce bit-identical traces, whichever protocols they name.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clocks import ClockTable, ConstantDrift, DriftModel, read_before_update
from .errors import ContractViolation, DrivenRate
from .protocols import GRADES, PISYNC, PROTOCOLS, error_scale, gain_limit, step_size_limit, update

# bench/tracer.py wraps this name; nothing calls it; ROADMAP item 9b deletes it.
on_beacon_tick = None

# The most a run may ask for, by what it counts; each check names the
# parameter that asked and the largest value that fits.  A trace cell keeps 24
# bytes, 8 each of hardware rate, logical reading and rate, however many
# protocols run, and takes about 58 at the peak, while the readings are
# assembled (tracemalloc, one two-protocol fig3 run on a 4,000-node line):
# 160 MB per array at the bound (a 2,000-node line over 20 rounds needs 122k
# cells); each accepted delivery keeps 64 bytes of log as long as its trace,
# and each delivery slot 8 bytes of noise, plus 1 with drops, only until the
# event loop ends.  No budget counts a white-drift clock's table: about 88
# bytes per unit segment of the run, plus 64 while its drawn pieces are turned
# into the table.  The Monte-Carlo oracle takes at most 1,200 bytes per trial
# for two protocols, two 16-round noise blocks (512) and temporaries included
# (tracemalloc peak 1,000 i.i.d., 1,120 differenced): 300 MB at the bound.  At
# fig3's 670k node-rounds a second (BENCH_37.json) and theory-check's 82.8M
# draws, about one per path-round, the two work bounds take 150 s and 24 s.
BUDGETS = {
    "trace cells (samples x nodes)": 2 * 10**7,
    "Monte-Carlo paths (protocols x trials)": 5 * 10**5,
    "node-rounds (nodes x rounds, summed over seeds)": 10**8,
    "path-rounds (protocols x trials x rounds x grid points)": 2 * 10**9,
}
CELLS, PATHS, NODE_ROUNDS, PATH_ROUNDS = BUDGETS


def sample_grid(duration: float, beacon_period: float) -> tuple[int, float]:
    """A trace's sample count and period, beacon_period / 3: a sample at 0 and every period
    up to ``duration``, the count capped past the CELLS budget to stay an int."""
    period = beacon_period / 3.0
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
    """One simulation run.  Every number must be finite.

    ``drift`` is one drift model for every node, or ``{node: model}`` with
    ``ConstantDrift(0)`` for a node not named, each model's bound
    ``max_abs_deviation()`` below ``nominal_freq``; a run realizes each node's
    model from that node's own generator.  Every protocol starts every node at
    the gain ``step_fraction * protocols.gain_limit``: a fraction in (0, 1) for
    a fixed step, in (0, 1] for an adaptive one.
    """

    topology: Topology
    beacon_period: float
    duration: float
    nominal_freq: float = 1.0
    delay_std: float = 0.0
    drift: object = ConstantDrift(0.0)  # a model | {node: model}
    protocols: tuple[str, ...] = (GRADES,)
    step_policy: str = "fixed"
    step_fraction: float = 0.5  # of the gain limit, for every protocol
    phase_mode: str = "random"  # "aligned" | "random" | "staggered"
    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        positive = (self.beacon_period, self.duration, self.nominal_freq)
        if not all(0 < x < math.inf for x in positive):
            raise ValueError("beacon_period, duration and nominal_freq must be finite and > 0")
        for drift in self.drift.values() if isinstance(self.drift, dict) else (self.drift,):
            if not isinstance(drift, DriftModel):
                raise ValueError(f"drift must be a drift model or {{node: model}}, got {drift!r}")
            if not drift.max_abs_deviation() < self.nominal_freq:  # so that NaN fails too
                raise ValueError(f"drift {drift!r} must deviate by less than nominal_freq")
        if not 0 <= self.delay_std < math.inf:
            raise ValueError("delay_std must be non-negative and finite")
        if not self.protocols or any(p not in PROTOCOLS for p in self.protocols):
            raise ValueError(f"protocols must be a non-empty subset of {PROTOCOLS}")
        if len(set(self.protocols)) != len(self.protocols):
            raise ValueError("duplicate protocol")
        if self.step_policy not in ("fixed", "adaptive"):
            raise ValueError("step_policy must be 'fixed' or 'adaptive'")
        if not (0 < self.step_fraction < 1
                or self.step_policy == "adaptive" and self.step_fraction == 1):
            top = "1]" if self.step_policy == "adaptive" else "1)"
            raise ValueError(f"{self.step_policy} step_fraction must be in (0, {top}, "
                             f"got {self.step_fraction}")
        for protocol in self.protocols:  # each reports its steps against a finite limit
            step_size_limit(protocol, self.beacon_period, self.nominal_freq)
        if self.phase_mode not in ("aligned", "random", "staggered"):
            raise ValueError("phase_mode must be 'aligned', 'random' or 'staggered'")
        if not 0 <= self.drop_probability < 1:
            raise ValueError("drop_probability must be in [0, 1)")
        if isinstance(self.drift, dict) and (bad := set(self.drift) - set(self.topology.nodes)):
            raise ValueError(f"drift keys {sorted(bad, key=repr)} are not topology nodes")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):  # numpy's too
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class SyncEvent:
    """One accepted sync message: who corrected, by how much, with what gain.

    ``gain`` is the same for every protocol of the run; a protocol's step size
    is the gain over its ``protocols.error_scale``.  A fixed gain is
    ``step_fraction`` times ``protocols.gain_limit``.
    """

    time: float
    node: int
    seq: int
    error: float
    gain: float
    rate_multiplier: float


@dataclass
class SkewTrace:
    """A run's one trajectory, sampled for every node: the same for each of ``protocols``."""

    times: np.ndarray
    node_ids: tuple[int, ...]
    protocols: tuple[str, ...]
    readings: np.ndarray  # (samples, nodes) logical ticks
    rate_multipliers: np.ndarray  # (samples, nodes)
    hw_rates: np.ndarray  # (samples, nodes) instantaneous hardware frequency
    meta: dict = field(default_factory=dict)
    update_log: array = field(default_factory=lambda: array("d"), repr=False)  # 8 per update row

    def node_column(self, node: int) -> int:
        return self.node_ids.index(node)

    def global_skew(self) -> np.ndarray:
        return self.readings.max(axis=1) - self.readings.min(axis=1)

    @cached_property
    def events(self) -> list[SyncEvent]:
        """Every accepted update, read from the update log, in the order applied."""
        rows = np.frombuffer(self.update_log).reshape(-1, 8).tolist()
        return [SyncEvent(t, self.node_ids[int(i)], int(seq), error, gain, rate)
                for t, i, seq, _, _, rate, error, gain in rows]

    def node_events(self, node: int) -> list[SyncEvent]:
        return [e for e in self.events if e.node == node]


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


def _assemble(start, log, times, hw, readings, rates) -> None:
    """Fill ``readings`` and ``rates`` from the start clocks and the update log.

    ``start`` holds the (value, rate, hw_at) clocks the nodes start with,
    ``log`` the update log (see the module docstring), an update leaving the
    clock (received, rate, hw), and ``hw`` the (samples, nodes) hardware
    readings at ``times``.  A sample at t reads ``value + rate * (hw - hw_at)``
    of the latest update before t, raising if hw < hw_at.
    """
    rows, n = hw.shape
    log = np.frombuffer(log).reshape(-1, 8)
    table = np.concatenate((start, log[:, [4, 5, 3]]))
    keys = np.searchsorted(times, log[:, 0], "right") * n + log[:, 1].astype(int)
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

    ``meta["deliveries"]`` counts every delivery slot as ``accepted``,
    ``stale`` or ``dropped``.  ``stale`` includes every delivery to the
    reference, which always holds the newest flood, not only repeated floods.
    ``meta["phase_s"]`` holds the seconds of set-up (the beacon schedule and
    the draws included), the event loop and trace assembly.
    ``meta["final_state"]`` gives each protocol's (min, median, max) step size
    and rate multiplier over the nodes but the reference at the end (NaNs if
    there are none).  The trace holds the one trajectory every protocol runs,
    once.  Raises ContractViolation annotated with node id and event time if
    an update breaks its contract, a driven rate told as the first protocol,
    in its step units.
    """
    run_start = time.perf_counter()
    topo = config.topology
    nodes = tuple(sorted(topo.nodes))
    b, f0 = config.beacon_period, config.nominal_freq
    round_ticks = b * f0
    n = len(nodes)
    n_samples, period = sample_grid(config.duration, b)
    check_budget(CELLS, "nodes", n, lambda k: k * n_samples,
                 f" for duration={config.duration:g} sampled every {period:g}",
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
    duration, p_drop, drift = config.duration, config.drop_probability, config.drift
    # Node state lives in lists indexed by the node's position in ``nodes``,
    # which orders beacons exactly as node ids do.
    index = {u: i for i, u in enumerate(nodes)}
    ref = index[topo.reference]
    models = ([drift.get(u, ConstantDrift(0.0)) for u in nodes] if isinstance(drift, dict)
              else [drift] * n)
    # The spacing of the largest reading the run can reach: in ``reading + noise`` a delay
    # noise under 3 spacings comes out with its std more than 0.5% off.
    top = round_ticks + duration * (f0 + max([m.max_abs_deviation() for m in models]))
    resolution = float(np.spacing(top))
    if 0 < config.delay_std * f0 < 3 * resolution:
        raise ValueError(f"parameter delay_std must be 0 or at least {3 * resolution / f0:.3g}, "
                         f"3 spacings of readings up to {top:.3g} ticks, got {config.delay_std:g}")
    times = np.arange(n_samples) * period
    # Each clock's pieces to the horizon, drawn from that clock's own generator,
    # and let go once the table is built.
    clocks = ClockTable(f0, [model.pieces(max(duration, times[-1]), np.random.default_rng(child))
                             for model, child in zip(models, drift_ss.spawn(n))], phases)
    neighbors = [tuple([index[v] for v in topo.neighbors(u)]) for u in nodes]
    # The flat node state (value, rate, hw_at, gain, error), the update log and the
    # first protocol's update rule, looked up here, at run time.  Clocks start at
    # their hardware reading.
    first = config.protocols[0]
    rule = {GRADES: grades_on_message, PISYNC: pisync_on_message}[first]
    scales = [error_scale(p, b, f0) for p in config.protocols]
    gain_max = gain_limit(b, f0)
    hw0 = phases.tolist()  # each clock's reading at t = 0
    values, rates, hw_ats = list(hw0), [1.0] * n, list(hw0)
    gains, errors = [config.step_fraction * gain_max] * n, [0.0] * n
    log = array("d")  # one row per accepted update, as the module docstring lists
    seqs = [0] * n  # the newest flood sequence number each node holds
    # Every beacon up to ``duration``, at each whole number of rounds of its sender's clock,
    # as rows (time, sender, reading, whether it is the last beacon of its instant).
    columns = clocks.crossings(round_ticks, duration)
    columns += (np.append(columns[0][1:] != columns[0][:-1], True),)
    beacons = itertools.chain.from_iterable(  # as Python values, 1024 rows at a time
        zip(*[c[j:j + 1024].tolist() for c in columns]) for j in range(0, len(columns[0]), 1024))
    # Each delivery slot's noise in ticks and drop: one slot per beacon and neighbour,
    # in send order, read at a running slot index.  Every slot drawn to drop is dropped.
    slots = int(np.array([len(vs) for vs in neighbors])[columns[1]].sum())
    noise = delay_rng.normal(0.0, config.delay_std, slots)
    noise = memoryview(np.multiply(noise, f0, out=noise))
    drop = drop_rng.random(slots) < p_drop if p_drop > 0 else np.zeros(0, bool)
    dropped, drop, slot, sent = int(np.count_nonzero(drop)), memoryview(drop), 0, []
    setup_end = time.perf_counter()

    # One instant t at a time, as the module docstring states.
    try:
        for t, who, hw, last in beacons:
            seq = seqs[who]
            if who == ref:  # a fresh flood, advertising the hardware clock
                seq = seqs[who] = seq + 1
                reading = hw
            elif seq == 0:  # no flood to relay: stale at every receiver, or dropped
                slot += len(neighbors[who])
            elif hw < hw_ats[who]:
                raise read_before_update(hw, hw_ats[who])
            else:
                reading = values[who] + rates[who] * (hw - hw_ats[who])
            if seq:
                for v in neighbors[who]:
                    k, slot = slot, slot + 1
                    if p_drop > 0 and drop[k] or seq <= seqs[v]:
                        continue  # dropped, or stale already: sequence numbers only grow
                    sent.append((v, seq, reading + noise[k]))
            if last and sent:  # the instant's deliveries, in the order sent: each
                # changes only its receiver's state and draws nothing
                for who, seq, received in sent:
                    if seq <= seqs[who]:  # stale: a flood this instant already brought
                        continue
                    seqs[who] = seq
                    hw = clocks.read(who, t)
                    error, gain, rate = rule(values[who], rates[who], hw_ats[who], gains[who],
                                             errors[who], received, hw, gain_max, adaptive)
                    values[who], rates[who], hw_ats[who] = received, rate, hw
                    gains[who], errors[who] = gain, error
                    log.fromlist([t, who, seq, hw, received, rate, error, gain])
                sent = []
    except DrivenRate as err:  # told in the first protocol's step units and in rounds
        text = err.text("step size", scales[0], "{:.9g} rounds", round_ticks)
        raise ContractViolation(f"node {nodes[who]} at t={t:.9g}: {first} {text}") from err
    except ContractViolation as err:
        raise ContractViolation(f"node {nodes[who]} at t={t:.9g}: {err}") from err
    del columns, beacons, noise, drop  # the schedule and draws, before assembly
    loop_end = time.perf_counter()
    hw_grid, hw_rates_out = clocks.sample(np.arange(n), times[:, None])
    readings_out, rates_out = np.empty_like(hw_grid), np.empty_like(hw_grid)
    _assemble(np.array([hw0, [1.0] * n, hw0]).T, log, times, hw_grid, readings_out, rates_out)
    assembly_end = time.perf_counter()
    accepted = len(log) // 8  # every other slot not dropped is stale
    rate_spread = _spread(rates, ref)  # the same for every protocol

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
            "resolution_ticks": resolution,
            "deliveries": {"accepted": accepted, "stale": slots - accepted - dropped,
                           "dropped": dropped},
            "phase_s": {"setup": setup_end - run_start, "loop": loop_end - setup_end,
                        "assembly": assembly_end - loop_end},
            "final_state": {p: {"step_size": _spread([g / scale for g in gains], ref),
                                "rate_multiplier": rate_spread}
                            for p, scale in zip(config.protocols, scales)},
        },
        update_log=log,
    )


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

    Streamed a sample row at a time: the row's readings are formatted once, by
    one ``%``, and written under every protocol by a second, through a template
    built once with a line per protocol and node and the time left as NUL.
    """
    with open(path, "w") as fh:
        _write_head(
            fh, ("t_seconds", "node_id", "protocol", "logical_ticks"), _meta_comments(trace)
        )
        template = "".join([f"\0,{u},{p},%s\n" for p in trace.protocols for u in trace.node_ids])
        cells = "%.9g," * len(trace.node_ids)
        for i, t in enumerate(trace.times):
            row = (cells % tuple(trace.readings[i].tolist())).split(",")[:-1]
            fh.write(template.replace("\0", _fmt(t)) % tuple(row * len(trace.protocols)))


def write_skew_csv(trace: SkewTrace, path) -> None:
    """Global skew series: t_seconds,protocol,global_skew_ticks, one skew under each protocol."""
    line = "".join([f"%.9g,{p},%.9g\n" for p in trace.protocols])
    pairs = np.tile(np.column_stack((trace.times, trace.global_skew())), len(trace.protocols))
    with open(path, "w") as fh:
        _write_head(fh, ("t_seconds", "protocol", "global_skew_ticks"), _meta_comments(trace))
        for j in range(0, len(pairs), 1024):
            block = pairs[j:j + 1024]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
