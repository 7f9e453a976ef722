"""Event-driven simulator: topology, determinism, protocol isolation,
flood propagation, trace utilities, and CSV output."""

import hashlib
import math
import re
from array import array
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from reference_sim import Realization, logical_reading, reference_reading

from gradesync import (
    GRADES,
    PISYNC,
    ConstantDrift,
    ContractViolation,
    PiecewiseDrift,
    RandomConstantDrift,
    SimConfig,
    SkewTrace,
    SyncEvent,
    SystemParams,
    Topology,
    WhiteDrift,
    convergence_time,
    estimate_variance_mc,
    fit_power_exponent,
    run,
    write_skew_csv,
    write_trace_csv,
)
from gradesync import clocks, scenarios, sim
from gradesync.protocols import error_scale, gain_limit, step_size_limit, update
from gradesync.scenarios import SCENARIOS, multihop_config, scaling_experiment


def scaling(**kw):
    """The scaling scenario's parameters, with ``kw`` overriding its defaults."""
    return {**SCENARIOS["scaling"].defaults, **kw}


def config(**kw):
    base = dict(
        topology=Topology.line(2),
        beacon_period=1.0,
        duration=10.0,
        protocols=(GRADES,),
        step_policy="fixed",
        step_fraction=0.5,
        phase_mode="aligned",
        seed=3,
    )
    base.update(kw)
    return SimConfig(**base)


# The fraction of grades' limit at B = 3 whose gain is bitwise that of the grades step 0.1.
B3_FRACTION = 0.9000000000000001


# ---------------------------------------------------------------- topology


def test_line_topology_shape_and_neighbors():
    topo = Topology.line(5)
    assert topo.nodes == (1, 2, 3, 4, 5)
    assert topo.reference == 1
    assert topo.neighbors(1) == (2,)
    assert topo.neighbors(3) == (2, 4)
    assert topo.hops_from_reference() == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}


def test_topology_rejects_malformed_graphs():
    with pytest.raises(ValueError):
        Topology(nodes=(), edges=())
    with pytest.raises(ValueError):
        Topology(nodes=(1, 1), edges=())
    with pytest.raises(ValueError):
        Topology(nodes=(0, 1), edges=((0, 1),))
    with pytest.raises(ValueError):
        Topology(nodes=(1, 2), edges=((1, 1),))
    with pytest.raises(ValueError):
        Topology(nodes=(1, 2), edges=((1, 3),))
    with pytest.raises(ValueError):
        Topology(nodes=(1, 2), edges=((1, 2),), reference=9)
    with pytest.raises(ValueError):  # disconnected
        Topology(nodes=(1, 2, 3), edges=((1, 2),))
    with pytest.raises(ValueError, match="repeated edge"):  # each broadcast would arrive twice
        Topology(nodes=(1, 2, 3), edges=((1, 2), (2, 1), (2, 3), (2, 3)))
    with pytest.raises(ValueError):
        Topology.line(0)


def reference_neighbors(topo, u):
    """The original O(E) scan over every edge, kept as the reference."""
    return tuple(sorted(v for a, b in topo.edges for v, w in ((a, b), (b, a)) if w == u))


def random_connected_graph(rng, n, extra):
    """Random spanning tree over ids 1..n plus ``extra`` further distinct edges."""
    ids = [int(u) for u in rng.permutation(np.arange(1, n + 1))]
    edges = {frozenset((ids[i], ids[int(rng.integers(i))])) for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = (int(x) for x in rng.integers(1, n + 1, size=2))
        if u != v:
            edges.add(frozenset((u, v)))
    return [tuple(e) for e in edges]


@pytest.mark.parametrize("seed", range(6))
def test_adjacency_matches_the_edge_scan_for_any_edge_order(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    edges = random_connected_graph(rng, n, extra=int(rng.integers(0, 2 * n)))
    nodes = tuple(range(1, n + 1))
    reference = int(rng.integers(1, n + 1))
    orders = [edges, edges[::-1], [(v, u) for u, v in edges]]
    base = orders[int(rng.integers(3))]
    orders.append([base[i] for i in rng.permutation(len(edges))])
    hops = None
    for order in orders:
        topo = Topology(nodes=nodes, edges=tuple(order), reference=reference)
        for u in nodes + (n + 1,):
            assert topo.neighbors(u) == reference_neighbors(topo, u)
        hops = hops or topo.hops_from_reference()
        assert topo.hops_from_reference() == hops


# ---------------------------------------------------------------- config validation


def test_sim_config_validation():
    assert config().step_fraction == 0.5
    with pytest.raises(ValueError):
        config(beacon_period=0.0)
    with pytest.raises(ValueError):
        config(duration=0.0)
    config(drift=ConstantDrift(-0.999))  # a drift bound just below nominal_freq is fine
    config(drift={2: WhiteDrift(999.0)}, nominal_freq=1e3)
    with pytest.raises(ValueError):
        config(delay_std=-1e-6)
    for name in ("beacon_period", "duration", "nominal_freq", "delay_std"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                config(**{name: bad})
    with pytest.raises(ValueError):
        config(protocols=())
    with pytest.raises(ValueError):
        config(protocols=("ntp",))
    with pytest.raises(ValueError):
        config(protocols=(GRADES, GRADES))
    with pytest.raises(ValueError):
        config(step_policy="auto")
    with pytest.raises(ValueError):
        config(phase_mode="sorted")
    with pytest.raises(ValueError):
        config(drop_probability=1.0)
    # A dict key the run would ignore leaves its default in place: no drift.
    with pytest.raises(ValueError, match=r"drift keys \[9\]"):
        config(topology=Topology.line(3), drift={9: ConstantDrift(1e-4)})
    assert config(seed=np.int64(4)).seed == 4  # numpy's integers are seeds too


@pytest.mark.parametrize("bad", [True, 2.5, -1])
def test_the_simulator_and_the_oracle_refuse_a_bool_float_or_negative_seed(bad):
    # Where it is set, not where a run first draws from it.  A bool is an int to Python:
    # True would run seed 1 and write "# seed=True".
    with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {bad}$"):
        config(seed=bad)
    p = SystemParams(beacon_period=1.0, nominal_freq=1.0, step_size=0.1, max_deviation=0.0,
                     delay_std=0.0)
    with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {bad}$"):
        estimate_variance_mc(p, (GRADES,), rounds=2, trials=1, seed=bad)


@pytest.mark.parametrize("drift", [
    "pink", "white", "random-constant", None, 1e-4, {2: "white"},
])
def test_a_drift_that_is_not_a_model_is_refused(drift):
    with pytest.raises(ValueError, match=r"^drift must be a drift model or \{node: model\}, got "):
        config(drift=drift)


@pytest.mark.parametrize("drift", [
    ConstantDrift(1.0),
    PiecewiseDrift(((0.0, 0.5), (3.0, -1.5))),
    WhiteDrift(1.0),
    WhiteDrift(math.nan),  # a NaN bound must not slip through the comparison
    RandomConstantDrift(1.0),
    {2: RandomConstantDrift(math.inf)},
])
def test_a_drift_bound_not_below_nominal_freq_is_refused(drift):
    with pytest.raises(ValueError, match="must deviate by less than nominal_freq$"):
        config(drift=drift)


@pytest.mark.parametrize("policy, fraction", [
    ("fixed", 0.0), ("fixed", 1.0), ("fixed", -0.5), ("fixed", math.nan),
    ("adaptive", 0.0), ("adaptive", math.nextafter(1.0, 2.0)), ("adaptive", math.nan),
])
def test_a_step_fraction_outside_its_interval_is_refused(policy, fraction):
    top = "1]" if policy == "adaptive" else "1)"
    with pytest.raises(ValueError, match=re.escape(
            f"{policy} step_fraction must be in (0, {top}, got {fraction}")):
        config(step_policy=policy, step_fraction=fraction)


def test_a_step_fraction_is_the_start_gain_of_every_protocol():
    # A fixed step stops short of the limit, an adaptive one may start on it.
    for policy, fraction in (("fixed", math.nextafter(1.0, 0.0)), ("adaptive", 1.0),
                             ("fixed", 0.25)):
        trace = run(config(protocols=(GRADES, PISYNC), step_policy=policy,
                           step_fraction=fraction, duration=1.0))
        assert len(trace.events) == 1  # one delivery, at t = 1
        shrink = 3.0 if policy == "adaptive" else 1.0  # no error yet: an adaptive step shrinks
        assert trace.events[0].gain == fraction * 2.0 / shrink
        for p in (GRADES, PISYNC):
            step = fraction * 2.0 / shrink / error_scale(p, 1.0, 1.0)
            assert trace.meta["final_state"][p]["step_size"] == (step,) * 3


@pytest.mark.parametrize("protocol, beacon_period", [(GRADES, 1e-300), (PISYNC, 1e-320)])
def test_a_config_whose_step_limit_is_not_finite_is_refused(protocol, beacon_period):
    with pytest.raises(ValueError, match=f"{protocol} step size limit at inf, not finite"):
        config(protocols=(protocol,), beacon_period=beacon_period)


# ---------------------------------------------------------------- basic dynamics


def test_identical_noise_free_clocks_stay_at_zero_skew():
    trace = run(config(duration=12.0))
    assert np.all(trace.global_skew() == 0.0)
    assert all(e.error == 0.0 for e in trace.events)


def test_random_phases_converge_to_near_zero_skew_without_noise():
    # step 0.5 at unit round geometry zeroes the rate error after two
    # accepted messages; afterwards the logical clocks agree to rounding.
    trace = run(config(phase_mode="random", duration=12.0, seed=11))
    skew = trace.global_skew()
    late = trace.times >= 3.0
    assert skew[late].max() < 1e-9
    assert skew[0] > 1e-3  # the random phase gap is visible before syncing


def test_constant_drift_is_corrected_and_events_are_recorded():
    trace = run(config(drift={2: ConstantDrift(1e-4)}, duration=12.0))
    events = trace.node_events(2)
    assert [e.seq for e in events] == list(range(1, len(events) + 1))
    assert events[0].error == pytest.approx(1e-4, rel=1e-6)
    assert abs(events[-1].error) < 1e-12
    assert trace.global_skew()[-1] < 1e-9


def test_reference_node_never_adjusts_itself():
    cfg = config(
        topology=Topology.line(3),
        drift={1: ConstantDrift(3e-5), 2: ConstantDrift(-5e-5), 3: ConstantDrift(7e-5)},
        delay_std=1e-4,
        phase_mode="random",
        step_policy="adaptive",
        duration=20.0,
        seed=2,
    )
    trace = run(cfg)
    col = trace.node_column(1)
    assert np.all(trace.rate_multipliers[:, col] == 1.0)
    assert not [e for e in trace.events if e.node == 1]
    # Its logical reading is its hardware reading: phase + (f0 + dev) * t.
    phase = trace.readings[0, col]
    expected = phase + (1.0 + 3e-5) * trace.times
    assert np.allclose(trace.readings[:, col], expected, rtol=1e-12, atol=1e-9)


def test_trace_sampling_grid():
    trace = run(config(duration=10.0))
    assert len(trace.times) == 31  # a sample every third of a round
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(10.0, abs=1e-9)
    assert trace.meta["seed"] == 3
    assert trace.meta["unit_mode"] == "normalized"
    coarse = run(config(beacon_period=3.0, duration=10.0, step_fraction=B3_FRACTION))
    assert np.array_equal(coarse.times, np.arange(11.0))
    assert coarse.readings.shape == (11, 2)
    assert coarse.hw_rates.shape == (11, 2)


# Samples a 12 s run holds at each beacon period: every B / 3 from 0, which
# is exact for B = 3 and 0.75, and only t = 0 when B / 3 outlasts the run.
GRID_SAMPLES = {3.0: 13, 0.75: 49, 1.0: 37, 0.7: 52, 40.0: 1}


@pytest.mark.parametrize("beacon_period", sorted(GRID_SAMPLES))
def test_every_trace_samples_every_third_of_a_round_from_zero(beacon_period):
    n = GRID_SAMPLES[beacon_period]
    assert sim.sample_grid(12.0, beacon_period) == (n, beacon_period / 3.0)
    trace = run(config(beacon_period=beacon_period, duration=12.0,
                       step_policy="adaptive", phase_mode="random"))
    assert trace.times.tolist() == [k * (beacon_period / 3.0) for k in range(n)]
    assert trace.times[-1] <= 12.0 + 1e-9
    assert trace.readings.shape == trace.hw_rates.shape == (n, 2)


@pytest.mark.parametrize(
    "beacon_period, nominal_freq, unit_mode",
    [
        (1.0, 1.0, "normalized"),
        (30.0, 1e6, "physical"),
        (1.0, 1e6, "physical"),
        (30.0, 1.0, "physical"),
    ],
)
def test_unit_mode_is_derived_from_the_round_and_the_nominal_freq(
    beacon_period, nominal_freq, unit_mode
):
    cfg = config(
        beacon_period=beacon_period,
        nominal_freq=nominal_freq,
        duration=90.0,
        step_policy="adaptive",
    )
    assert run(cfg).meta["unit_mode"] == unit_mode


# ---------------------------------------------------------------- determinism & isolation


def test_identical_configs_give_bitwise_identical_traces():
    cfg = config(
        topology=Topology.line(4),
        drift=WhiteDrift(1e-4),
        delay_std=1e-4,
        phase_mode="random",
        step_policy="adaptive",
        duration=15.0,
        seed=7,
    )
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.readings, b.readings)
    assert np.array_equal(a.rate_multipliers, b.rate_multipliers)
    assert a.events == b.events
    c = run(config(**{**cfg.__dict__, "seed": 8}))
    assert not np.array_equal(a.readings, c.readings)


# Each case: the step fraction and nominal_freq.  At f0 = 0.3 grades' error
# scale, 0.6, is not a power of two, so its steps read back off by an ulp.
ISOLATION_CASES = {
    "f0-1": (0.125, 1.0),
    "f0-0.3": (0.25, 0.3),
}


def _bits(trace):
    """The trajectory ``run`` reports, bitwise (``repr`` round-trips floats)."""
    return (trace.readings.tobytes(), trace.rate_multipliers.tobytes(),
            trace.hw_rates.tobytes(), repr(trace.events))


@pytest.mark.parametrize("policy", ["fixed", "adaptive"])
@pytest.mark.parametrize("drop_probability", [0.0, 0.2])
@pytest.mark.parametrize("case", sorted(ISOLATION_CASES))
def test_protocol_traces_do_not_depend_on_co_running_protocols(case, drop_probability, policy):
    fraction, f0 = ISOLATION_CASES[case]
    kw = dict(
        topology=Topology.line(3),
        nominal_freq=f0,
        drift=WhiteDrift(1e-4),
        delay_std=1e-4,
        phase_mode="random",
        step_policy=policy,
        step_fraction=fraction,
        drop_probability=drop_probability,
        duration=12.0,
        seed=5,
    )
    dual = run(config(protocols=(GRADES, PISYNC), **kw))
    for p in (GRADES, PISYNC):
        single = run(config(protocols=(p,), **kw))
        assert _bits(single) == _bits(dual)
        # Each protocol's steps, in its own units, as when it runs alone.
        assert repr(single.meta["final_state"][p]) == repr(dual.meta["final_state"][p])


# A tree no scenario builds: ids that are neither contiguous nor sorted in the
# edges, a reference other than node 1 (with a leaf behind it), drops, recorded
# events and, under aligned phases, many tied event times.  The hashes were
# recorded when hardware readings became a pure function of time; any change
# in a reading, rate, event or draw order shows up here.
ODD_TREE = Topology(
    nodes=(3, 7, 10, 12, 20), edges=((7, 3), (7, 10), (10, 12), (7, 20)), reference=10
)
ODD_TREE_DRIFTS = {
    "white": WhiteDrift(1e-3),
    "mixed": {
        3: PiecewiseDrift(((0.0, 4e-4), (7.5, -6e-4), (20.0, 2e-4))),
        7: WhiteDrift(1e-3),
        12: ConstantDrift(-3e-4),
        20: PiecewiseDrift(((0.0, -1e-4), (11.0, 5e-4))),
    },
}
ODD_TREE_SHA256 = {
    ("aligned", "mixed"):
        "9a269fbab3f3d81a957d308e46a586056646c006d1d12d9122383f8da0c0ddef",
    ("aligned", "white"):
        "8ec48b0db79dd86f841cea3a685b7b44e95b704fb0e517008f328271923401d7",
    ("random", "mixed"):
        "7c2d889682be6c256f32c489813b4dcc55982fc84592fb2d550eb3d4a9cf98cd",
    ("random", "white"):
        "e9668caf7305033f024cec99d5b7a29bbfa8c938e05a20b1a5dc5ea6bb1d053e",
    ("staggered", "mixed"):
        "034c461799b021c6e54f4b9416eda8b0d9a7b6b584c0cbf5a47e2d1ace8a9193",
    ("staggered", "white"):
        "2d2bc774603bcf4dc9e32f5868f8ba148aa174a092ba2f9e9c41548f9bdb0353",
}


def trace_digest(trace: SkewTrace) -> str:
    """SHA-256 of ``trace`` in the layout its hashes were recorded in: the arrays once per
    protocol, then each event once per protocol, with its step, the gain over the error scale."""
    h = hashlib.sha256()
    for _ in trace.protocols:
        h.update(trace.readings.tobytes())
        h.update(trace.rate_multipliers.tobytes())
    h.update(trace.hw_rates.tobytes())
    b, f0 = trace.meta["beacon_period"], trace.meta["nominal_freq"]
    scales = [(p, error_scale(p, b, f0)) for p in trace.protocols]
    events = [f"SyncEvent(time={e.time!r}, node={e.node!r}, protocol={p!r}, seq={e.seq!r}, "
              f"error={e.error!r}, step_size={e.gain / scale!r}, "
              f"rate_multiplier={e.rate_multiplier!r})"
              for e in trace.events for p, scale in scales]
    h.update(f"[{', '.join(events)}]".encode())
    return h.hexdigest()


@pytest.mark.parametrize("phase_mode, drift", sorted(ODD_TREE_SHA256))
def test_odd_tree_with_drops_matches_its_recorded_hash(phase_mode, drift):
    trace = run(SimConfig(
        topology=ODD_TREE,
        beacon_period=1.0,
        duration=40.0,
        delay_std=1e-3,
        drift=ODD_TREE_DRIFTS[drift],
        protocols=(GRADES, PISYNC),
        step_policy="adaptive",
        step_fraction=1.0 / 16,
        phase_mode=phase_mode,
        drop_probability=0.3,
        seed=17,
    ))
    assert len(trace.events) > 50
    assert trace_digest(trace) == ODD_TREE_SHA256[(phase_mode, drift)]


# Sizes that stress how a trace is assembled from the accepted updates on the
# one sample grid, every third of a round, which random phases keep off the
# beacon instants: a nominal frequency whose grades error scale, 2,000, is not a
# power of two, many nodes, and a run that ends before any node beacons.  The
# hashes were recorded when hardware readings became a pure function of time;
# f0-1e3's on the code before the quantized-tick mode was deleted.
SAMPLING_BASE = dict(
    topology=Topology.line(6),
    beacon_period=1.0,
    duration=40.0,
    delay_std=1e-3,
    drift=WhiteDrift(1e-3),
    protocols=(GRADES, PISYNC),
    step_policy="adaptive",
    step_fraction=1.0 / 16,
    phase_mode="random",
    drop_probability=0.2,
    seed=23,
)
SAMPLING_CASES = {
    "f0-1e3": dict(nominal_freq=1e3, drift=WhiteDrift(0.5), step_fraction=0.5),
    "300-node-line": dict(topology=Topology.line(300), duration=10.0),
    "shorter-than-every-first-beacon": dict(phase_mode="aligned", duration=0.9),
}
SAMPLING_SHA256 = {
    "f0-1e3":
        "27f3be5f45eb0e0baf554e1efa28e7289bff8ca84130e4b920d9ad23ed1834c9",
    "300-node-line":
        "ca6b6d3268a88e34a4da5628f230d450e21632e4cf36403c6555b445f34fbf6f",
    "shorter-than-every-first-beacon":
        "4d5c2f9d37b7a12811b2f214ae6af6b9c56ec3715098369c654a5a7a7e2ad513",
}


@pytest.mark.parametrize("case", sorted(SAMPLING_CASES))
def test_sampling_cases_match_their_recorded_hash(case):
    trace = run(SimConfig(**{**SAMPLING_BASE, **SAMPLING_CASES[case]}))
    assert trace_digest(trace) == SAMPLING_SHA256[case]


def test_assembly_reads_each_sample_from_the_latest_update_it_sees():
    clocks = [(0.0, 1.0, 0.0), (5.0, 1.0, 5.0)]  # (value, rate, hw_at)
    times = np.array([0.0, 1.0, 2.0])
    updates = [  # (instant, node, clock): a sample at t sees the updates before t
        (0.5, 0, (2.5, 1.25, 2.0)),
        (0.5, 0, (3.0, 0.75, 2.5)),  # same node and instant: this one wins
        (1.0, 1, (9.0, 1.5, 8.0)),  # at the second sample: the third sees it
        (2.0, 0, (7.0, 2.0, 9.5)),  # at the last sample: no sample sees it
    ]
    log = array("d")  # one row per update; assembly skips its error and gain, -1 and 0.25
    for seq, (t, node, (value, rate, hw_at)) in enumerate(updates, 1):
        log.extend([t, node, seq, hw_at, value, rate, -1.0, 0.25])
    hw = np.array([[0.0, 5.0], [3.0, 7.0], [4.0, 9.0]])
    readings, rates = np.empty((3, 2)), np.empty((3, 2))
    sim._assemble(np.array(clocks), log, times, hw, readings, rates)
    expected = [[clocks[0], clocks[1]], [updates[1][2], clocks[1]], [updates[1][2], updates[2][2]]]
    for r, row in enumerate(expected):
        assert readings[r].tolist() == [logical_reading(c, h) for c, h in zip(row, hw[r])]
        assert rates[r].tolist() == [c[1] for c in row]
    # A sample whose hardware reading is below its clock's anchor breaks the contract.
    latest = np.array([updates[1][2], updates[2][2]])
    with pytest.raises(ContractViolation, match="before last update hw=8.0"):
        sim._assemble(latest, array("d"), times[:1], np.array([[4.0, 7.5]]), readings[:1],
                      rates[:1])


@pytest.mark.parametrize("case", sorted(SAMPLING_CASES))
def test_assembly_equals_reading_the_latest_logged_clock_at_each_sample(case, monkeypatch):
    # The whole-log numpy pass, once per run, against a sample-by-sample
    # replay of the update log through the reference's logical reading.
    real, assembled = sim._assemble, []

    def counted(start, log, times, hw, readings, rates):
        real(start, log, times, hw, readings, rates)
        assembled.append((start, hw))

    monkeypatch.setattr(sim, "_assemble", counted)
    trace = run(SimConfig(**{**SAMPLING_BASE, **SAMPLING_CASES[case]}))
    assert len(assembled) == 1
    start, hw = assembled[0]
    log = trace.update_log
    latest = start.tolist()
    # (t, node position, the clock it leaves) of each update, in the order applied
    pending = [(log[j], int(log[j + 1]), (log[j + 4], log[j + 5], log[j + 3]))
               for j in range(0, len(log), 8)]
    for r, t in enumerate(trace.times.tolist()):
        while pending and pending[0][0] < t:
            _, node, clock = pending.pop(0)
            latest[node] = clock
        assert trace.readings[r].tolist() == [logical_reading(c, h)
                                              for c, h in zip(latest, hw[r].tolist())]
        assert trace.rate_multipliers[r].tolist() == [c[1] for c in latest]
    assert all(u >= trace.times[-1] for u, _, _ in pending)  # what is left no sample sees


def test_stale_floods_never_reach_the_update_rule(monkeypatch):
    # On a line every node hears each flood back from the neighbour it sent it
    # to; those echoes are stale and must not be delivered at all.
    calls = []

    def counted(*args):
        calls.append(args)
        return update(*args)

    monkeypatch.setattr(sim, "grades_on_message", counted)
    trace = run(SimConfig(**{**SAMPLING_BASE, "topology": Topology.line(50), "duration": 60.0}))
    applied = [(e.node, e.seq) for e in trace.events]
    assert len(calls) == len(applied) > 49 * 10
    assert len(set(applied)) == len(applied)


@pytest.mark.parametrize("protocols, per_delivery", [
    ((GRADES,), {GRADES: 1, PISYNC: 0}),
    ((PISYNC,), {GRADES: 0, PISYNC: 1}),
    ((GRADES, PISYNC), {GRADES: 1, PISYNC: 0}),
    ((PISYNC, GRADES), {GRADES: 0, PISYNC: 1}),
])
def test_each_delivery_updates_once_through_the_first_protocols_name(
    monkeypatch, protocols, per_delivery
):
    # One update per accepted delivery, whatever the number of protocols, under
    # the first one's name, so each protocol's update rule can be wrapped on its own.
    calls = {GRADES: 0, PISYNC: 0}

    def counting(proto):
        def counted(*args):
            calls[proto] += 1
            return update(*args)

        return counted

    monkeypatch.setattr(sim, "grades_on_message", counting(GRADES))
    monkeypatch.setattr(sim, "pisync_on_message", counting(PISYNC))
    trace = run(SimConfig(**{**SAMPLING_BASE, "protocols": protocols}))
    accepted = trace.meta["deliveries"]["accepted"]
    assert accepted > 100
    assert calls == {p: accepted * k for p, k in per_delivery.items()}


@pytest.mark.parametrize("seed", range(3, 8))
def test_both_protocols_run_one_trajectory_on_default_fig3(seed):
    # fig3 starts both protocols at 1/64 of their stability limits: one gain,
    # one trajectory, and each protocol's final steps in its own units.
    config = multihop_config({**SCENARIOS["fig3-multihop"].defaults, "seed": seed})
    assert config.step_fraction == 1.0 / 64
    b, f0 = config.beacon_period, config.nominal_freq
    trace = run(config)
    assert trace.protocols == (GRADES, PISYNC)
    assert trace.readings.shape == trace.rate_multipliers.shape == (len(trace.times), 20)
    final = trace.meta["final_state"]
    assert final[GRADES]["rate_multiplier"] == final[PISYNC]["rate_multiplier"]
    for grades_step, pisync_step in zip(final[GRADES]["step_size"], final[PISYNC]["step_size"]):
        assert grades_step * error_scale(GRADES, b, f0) == pytest.approx(pisync_step, rel=1e-15)


def test_an_instant_sends_all_its_beacons_then_applies_their_deliveries_in_order_sent(
    monkeypatch,
):
    # Aligned clocks beacon together at every whole second, in node order.  At
    # t=2 node 1 sends flood 1 (heard at t=1) to node 3, then the reference,
    # node 2, sends flood 2 to node 1: the deliveries run in that order.
    built = []

    def counted(*fields):
        built.append(fields)
        return SyncEvent(*fields)

    monkeypatch.setattr(sim, "SyncEvent", counted)
    star = Topology(nodes=(1, 2, 3), edges=((1, 2), (1, 3)), reference=2)
    trace = run(config(topology=star, step_fraction=0.25, duration=3.0))
    # The run builds no event; the first read builds them from the update log, once.
    assert built == []
    events = trace.events
    assert trace.events is events
    assert len(built) == len(events) == 5
    assert [(e.time, e.node, e.seq) for e in trace.events if e.time == 2.0] == [
        (2.0, 3, 1),
        (2.0, 1, 2),
    ]
    own = {u: [(e.time, e.seq) for e in trace.node_events(u)] for u in star.nodes}
    assert own == {1: [(1.0, 1), (2.0, 2), (3.0, 3)], 2: [], 3: [(2.0, 1), (3.0, 2)]}


def test_a_flood_reaching_a_node_twice_at_one_instant_is_applied_once():
    # With aligned phases node 4 of a diamond hears flood k from nodes 2 and 3
    # at the same instant, one round after they do; only the first delivery counts.
    diamond = Topology(nodes=(1, 2, 3, 4), edges=((1, 2), (1, 3), (2, 4), (3, 4)))
    trace = run(config(topology=diamond, protocols=(GRADES, PISYNC), step_policy="adaptive",
                       duration=12.0))
    keys = [(e.node, e.seq) for e in trace.events]
    assert len(set(keys)) == len(keys) == 35
    for node, last in ((2, 12), (3, 12), (4, 11)):
        assert [e.seq for e in trace.node_events(node)] == list(range(1, last + 1))


BEACON_DRIFTS = {1: ConstantDrift(3e-4), 2: ConstantDrift(-2e-4), 3: ConstantDrift(1e-4)}


def applied(trace, node):
    """(t, seq, hw, (received, rate)) of each update ``node`` applied, in order."""
    log = trace.update_log
    column = trace.node_column(node)
    return [(log[j], int(log[j + 2]), log[j + 3], (log[j + 4], log[j + 5]))
            for j in range(0, len(log), 8) if log[j + 1] == column]


@pytest.mark.parametrize("protocols", [(GRADES,), (GRADES, PISYNC)])
def test_the_reference_beacons_a_new_seq_and_its_hardware_reading(protocols):
    # Noise-free, so each reading received is the one the beacon carried.
    trace = run(config(topology=Topology.line(3), drift=BEACON_DRIFTS, protocols=protocols))
    updates = applied(trace, 2)
    assert [seq for _, seq, _, _ in updates] == list(range(1, 11))
    for t, _, _, (received, _) in updates:
        assert received == reference_reading(Realization(BEACON_DRIFTS[1], 0), 1.0, 0.0, t)


@pytest.mark.parametrize("protocols", [(GRADES,), (GRADES, PISYNC)])
def test_a_relay_beacons_the_flood_it_holds_and_its_logical_reading(protocols):
    # Node 2 sends node 3 the seq of its latest update before the beacon and
    # the clock that update left read at node 2's hardware reading.
    trace = run(config(topology=Topology.line(3), drift=BEACON_DRIFTS, protocols=protocols))
    relayed, held = applied(trace, 3), applied(trace, 2)
    assert [seq for _, seq, _, _ in relayed] == list(range(1, 10))
    for t, seq, _, (received, _) in relayed:
        t_at, seq_at, hw_at, (value, rate) = [u for u in held if u[0] < t][-1]
        assert seq == seq_at
        hw = reference_reading(Realization(BEACON_DRIFTS[2], 0), 1.0, 0.0, t)
        assert received == logical_reading((value, rate, hw_at), hw)


@pytest.mark.parametrize("kind", ["constant", "piecewise"])
def test_trace_hw_rates_are_the_drift_models_rates_at_every_sample(kind):
    # A beacon period of 0.75 s samples every 0.25 s, one exactly on the
    # piecewise step at t = 5.
    f0 = 1e3
    models = {
        u: {
            "constant": ConstantDrift(0.1 * u),
            "piecewise": PiecewiseDrift(((0.0, 0.1 * u), (5.0, -0.2 * u), (17.5, 0.05))),
        }[kind]
        for u in range(1, 5)
    }
    trace = run(config(
        topology=Topology.line(4), duration=30.0, nominal_freq=f0,
        beacon_period=0.75, drift=models, step_policy="adaptive",
        phase_mode="random"))
    assert 5.0 in trace.times.tolist()
    for col, u in enumerate(trace.node_ids):
        drift = models[u]
        expected = [f0 + drift.devs[bisect_right(drift.starts, t) - 1] for t in trace.times]
        assert trace.hw_rates[:, col].tolist() == expected


# trace_digest of a run whose every node has one drawn drift model, bound 0.5, as recorded
# when that drift was spelt as the string "white" or "random-constant" with max_deviation=0.5.
DRAWN_DRIFT_SHA256 = {
    "white": "c9309cdc99062098c043f462f9281841757e240b0e3695f02df791cdcb179c37",
    "random-constant": "b9a96cd043648042ed12b4452eb330551d39f51d23971f59f3b3d222d39e4aa0",
}


@pytest.mark.parametrize("kind", sorted(DRAWN_DRIFT_SHA256))
def test_one_drawn_model_gives_each_node_its_own_realization_as_its_string_did(kind):
    # Node position i draws from the i-th child of the run's drift stream, the
    # fourth of SeedSequence(seed).spawn(4): a deviation per unit segment
    # (30.25 s span 31 of them), or one for all time.
    model = {"white": WhiteDrift(0.5), "random-constant": RandomConstantDrift(0.5)}[kind]
    cfg = config(topology=Topology.line(4), duration=30.0, nominal_freq=1e3, beacon_period=0.75,
                 drift=model, step_policy="adaptive", phase_mode="random")
    trace = run(cfg)
    assert trace_digest(trace) == DRAWN_DRIFT_SHA256[kind]
    children = np.random.SeedSequence(cfg.seed).spawn(4)[3].spawn(4)
    for col, child in enumerate(children):
        rng = np.random.default_rng(child)
        if kind == "white":
            draws = rng.uniform(-0.5, 0.5, 31).tolist()
            expected = [1e3 + draws[math.floor(t)] for t in trace.times]
        else:
            expected = [1e3 + float(rng.uniform(-0.5, 0.5))] * len(trace.times)
        assert trace.hw_rates[:, col].tolist() == expected
    assert len({tuple(rates) for rates in trace.hw_rates.T.tolist()}) == 4


# Overrides of SAMPLING_BASE whose clocks the table extends in different ways:
# white drift's unit segments, piecewise steps (node 3's at 20.0, the shorter
# run's end), drifts drawn once per node, and a slower nominal frequency.
PREFIX_CASES = {
    "white-drift-with-drops": {},
    "odd-tree-mixed-drift-staggered": dict(
        topology=ODD_TREE, drift=ODD_TREE_DRIFTS["mixed"], phase_mode="staggered"),
    "random-constant-drift-aligned": dict(drift=RandomConstantDrift(1e-3), phase_mode="aligned"),
    "f0-1e3": SAMPLING_CASES["f0-1e3"],
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_a_shorter_run_is_a_prefix_of_a_longer_one(case):
    # Samples read the pure-function hardware clocks after the event loop, and
    # the clock table's horizon is only how far it is computed, so neither
    # touches an event: halving the duration cuts the trace and the events.
    short, long = (run(SimConfig(**{**SAMPLING_BASE, **PREFIX_CASES[case], "duration": d}))
                   for d in (20.0, 40.0))
    assert 50 < len(short.events) < len(long.events)
    assert long.events[:len(short.events)] == short.events
    rows = len(short.times)
    assert long.times[:rows].tobytes() == short.times.tobytes()
    assert long.hw_rates[:rows].tobytes() == short.hw_rates.tobytes()
    assert long.readings[:rows].tobytes() == short.readings.tobytes()
    assert long.rate_multipliers[:rows].tobytes() == short.rate_multipliers.tobytes()


def test_deliveries_are_counted_as_accepted_stale_or_dropped():
    # Every delivery to the reference counts as stale: it always holds the
    # newest flood.  Two nodes for 12 rounds: 12 accepted, 12 to the reference.
    pair = run(config(duration=12.0))
    assert pair.meta["deliveries"] == {"accepted": 12, "stale": 12, "dropped": 0}
    # Aligned phases and no drift: every node beacons at t = 1..12 to its two
    # neighbours, 96 messages; a diamond's far node hears each flood twice.
    # Of the 61 stale, 24 go to the reference, 24 from the far node back to
    # nodes 2 and 3, and 13 to the far node (its second copy of each flood,
    # and the empty flood it hears first).
    diamond = Topology(nodes=(1, 2, 3, 4), edges=((1, 2), (1, 3), (2, 4), (3, 4)))
    trace = run(config(topology=diamond, protocols=(GRADES, PISYNC), duration=12.0))
    assert trace.meta["deliveries"] == {"accepted": 35, "stale": 61, "dropped": 0}
    assert len(trace.events) == 35
    # Two nodes for 30 rounds: 60 messages, about half of them dropped.
    lossy = run(config(duration=30.0, drop_probability=0.5))
    counts = lossy.meta["deliveries"]
    assert counts["accepted"] == len(lossy.node_events(2))
    assert counts["dropped"] > 10 and counts["stale"] > 10
    assert sum(counts.values()) == 60


def test_the_update_log_holds_one_row_of_eight_per_accepted_delivery():
    trace = run(config(topology=Topology.line(6), duration=20.0, phase_mode="random",
                       step_fraction=0.05, drop_probability=0.3))
    accepted = trace.meta["deliveries"]["accepted"]
    assert accepted > 20
    assert len(trace.update_log) == 8 * accepted == 8 * len(trace.events)


def test_a_run_reports_the_seconds_of_each_phase():
    phase_s = run(config(topology=Topology.line(5))).meta["phase_s"]
    assert set(phase_s) == {"setup", "loop", "assembly"}
    assert all(seconds >= 0 for seconds in phase_s.values())


@pytest.mark.parametrize("drift, top", [
    (ConstantDrift(0.0), 101.0),
    (WhiteDrift(0.5), 151.0),
    ({2: ConstantDrift(-0.5)}, 151.0),  # node 1, left out, deviates by 0: the largest |0.5| counts
    ({}, 101.0),
])
def test_a_run_reports_the_resolution_of_the_largest_reading_it_can_reach(drift, top):
    # B * f0 + duration * (f0 + largest |deviation|): 101 and 151 lie in different binades.
    trace = run(config(duration=100.0, drift=drift, step_fraction=0.05))
    assert trace.meta["resolution_ticks"] == np.spacing(top)
    assert np.spacing(101.0) < np.spacing(151.0)


def test_delay_noise_under_three_reading_spacings_is_refused_naming_delay_std():
    # At f0 = 4 readings reach 4 + 100 * 4 = 404 ticks; 3 spacings of noise, in seconds.
    least = 3 * np.spacing(404.0) / 4
    assert run(config(duration=100.0, nominal_freq=4.0, delay_std=least)).meta[
        "resolution_ticks"] == np.spacing(404.0)
    with pytest.raises(ValueError, match=r"^parameter delay_std must be 0 or at least .* spacings"):
        run(config(duration=100.0, nominal_freq=4.0, delay_std=np.nextafter(least, 0.0)))
    run(config(duration=100.0, nominal_freq=4.0, delay_std=0.0))  # no noise loses nothing


def test_sample_grid_is_bounded_before_it_is_allocated(monkeypatch):
    monkeypatch.setitem(sim.BUDGETS, sim.CELLS, 22)
    # A beacon period of 3 samples every 1.0: 11 samples fill the budget with 2 nodes.
    assert run(config(beacon_period=3.0, step_fraction=B3_FRACTION)).readings.shape == (11, 2)
    with pytest.raises(ValueError, match="^parameter nodes must be at most 1 for duration=11 "
                                         "sampled every 1, got 2$"):
        run(config(beacon_period=3.0, step_fraction=B3_FRACTION, duration=11.0))


def test_sample_grid_bound_holds_past_float_range():
    with pytest.raises(ValueError, match="^parameter duration is too large: even nodes=1 for "
                                         "duration=1e[+]300 sampled every 3.33333e-301 asks for "
                                         "more than 20000000 trace cells"):
        # pisync's step size limit there, 2e300, is finite; grades' is not.
        run(config(duration=1e300, beacon_period=1e-300, protocols=(PISYNC,)))


def test_the_trace_size_rule_names_the_largest_value_that_fits(monkeypatch):
    monkeypatch.setitem(sim.BUDGETS, sim.CELLS, 1000)
    assert sim.check_budget(sim.CELLS, "nodes", 142, lambda k: 7 * k) == 142
    for value in (143, 10**400):  # a value past float range is never used in a cell count
        with pytest.raises(ValueError, match=rf"^parameter nodes must be at most 142, got {value}$"):
            sim.check_budget(sim.CELLS, "nodes", value, lambda k: 7 * k)
    # 100 rounds sampled every third of a round are 301 samples: 3 nodes fit.
    line = Topology.line
    monkeypatch.setattr(Topology, "line", staticmethod(lambda n: pytest.fail(f"line({n})")))
    with pytest.raises(ValueError, match=r"^parameter diameters must be at most 2 for rounds=100, "):
        scaling_experiment(scaling(diameters=(2, 5), seeds=1, rounds=100))
    # When not even the least value fits, the rule names the parameter that sets the samples.
    with pytest.raises(ValueError, match=r"^parameter nodes must be at most 142 for d=1, got 150$"):
        sim.check_budget(sim.CELLS, "nodes", 150, lambda k: 7 * k, " for d=1", least=142,
                         other="d")
    with pytest.raises(ValueError, match=r"^parameter d is too large: even nodes=143 for d=1 asks "
                                         r"for more than 1000 trace cells \(samples x nodes\)$"):
        sim.check_budget(sim.CELLS, "nodes", 150, lambda k: 7 * k, " for d=1", least=143,
                         other="d")
    # 166 rounds are 499 samples, which fit twice (diameter 1) but not three times; 167 are 502.
    with pytest.raises(ValueError, match=r"^parameter diameters must be at most 1 for rounds=166, "):
        scaling_experiment(scaling(diameters=(1, 2), seeds=1, rounds=166))
    with pytest.raises(ValueError, match=r"^parameter rounds is too large: even diameters=1 for "
                                         r"rounds=167 asks for more than 1000 trace cells"):
        scaling_experiment(scaling(diameters=(1, 2), seeds=1, rounds=167))
    monkeypatch.setattr(Topology, "line", line)
    assert [row[0] for row in scaling_experiment(scaling(diameters=(1, 2), seeds=1,
                                                         rounds=100))] == [1, 2]


# ---------------------------------------------------------------- flooding


def test_floods_propagate_one_hop_per_round_with_aligned_phases():
    trace = run(config(topology=Topology.line(5), duration=10.0))
    for node, hop in ((2, 1), (3, 2), (4, 3), (5, 4)):
        events = trace.node_events(node)
        assert events[0].time == pytest.approx(float(hop), abs=1e-9)
        assert events[0].seq == 1
        assert [e.seq for e in events] == list(range(1, len(events) + 1))


def test_staggered_phases_sweep_the_whole_line_within_one_round():
    trace = run(config(topology=Topology.line(3), phase_mode="staggered", duration=8.0))
    first_far = trace.node_events(3)[0]
    assert first_far.seq == 1
    assert first_far.time == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("round_ticks", [1.0, 2.0**10, 1e-120, 1e120])
@pytest.mark.parametrize("phase_mode", ["aligned", "random", "staggered"])
def test_every_clock_starts_below_one_round(phase_mode, round_ticks):
    # The beacon schedule lists whole rounds only, so it misses none only if each
    # start reading lies in [0, B * f0); the trace's first row holds them exactly.
    trace = run(config(topology=Topology.line(40), nominal_freq=round_ticks, duration=2.0,
                       phase_mode=phase_mode))
    starts = trace.readings[0]
    assert ((0.0 <= starts) & (starts < round_ticks)).all()


def test_message_drops_thin_out_sync_events():
    kw = dict(duration=30.0, delay_std=0.0)
    clean = run(config(**kw))
    dropped = run(config(drop_probability=0.5, **kw))
    assert len(clean.node_events(2)) == 30
    assert 0 < len(dropped.node_events(2)) < 30


@pytest.mark.parametrize("protocol, fraction, drift, policy, told", [
    # A stable step still fails when one error is large: 0.9 * 2 * 0.6 > 1.
    (GRADES, 0.9, ConstantDrift(0.6), "fixed",
     "node 2 at t=1: grades rate multiplier driven to -0.0800000000000003 by step size 0.9 "
     "(below its limit 1.0) on a sync error of 0.6000000000000001 ticks, 1.6 rounds after"),
    # The same failure in pisync's units, whose limit is 2 / (B * f0).
    (PISYNC, 0.9, ConstantDrift(0.6), "fixed",
     "node 2 at t=1: pisync rate multiplier driven to -0.0800000000000003 by step size 1.8 "
     "(below its limit 2.0) on a sync error of 0.6000000000000001 ticks, 1.6 rounds after"),
    # An adaptive step grown to its limit is mis-scaled for the error it meets.
    (GRADES, 1.0, PiecewiseDrift(((0.0, 0.2), (2.0, 0.9))), "adaptive",
     "node 2 at t=3: grades rate multiplier driven to -0.2773333333333331 by step size 1.0 "
     "(mis-scaled; its limit is 1.0) on a sync error of 0.5453333333333332 ticks, "
     "1.9 rounds after"),
])
def test_a_driven_rate_names_node_time_protocol_step_limit_error_and_rounds(
    protocol, fraction, drift, policy, told
):
    cfg = config(drift={2: drift}, protocols=(protocol,), step_fraction=fraction,
                 step_policy=policy)
    with pytest.raises(ContractViolation) as raised:
        run(cfg)
    assert str(raised.value) == told + " the node's last update"


@pytest.mark.parametrize("protocols", [(GRADES, PISYNC), (PISYNC, GRADES)])
@pytest.mark.parametrize("fraction, drift, policy, told", [
    (0.9, ConstantDrift(0.6), "fixed", {
        GRADES: "node 2 at t=1: grades rate multiplier driven to -0.0800000000000003 by step "
                "size 0.9 (below its limit 1.0) on a sync error of 0.6000000000000001 ticks, "
                "1.6 rounds after the node's last update",
        PISYNC: "node 2 at t=1: pisync rate multiplier driven to -0.0800000000000003 by step "
                "size 1.8 (below its limit 2.0) on a sync error of 0.6000000000000001 ticks, "
                "1.6 rounds after the node's last update"}),
    (1.0, PiecewiseDrift(((0.0, 0.2), (2.0, 0.9))), "adaptive", {
        GRADES: "node 2 at t=3: grades rate multiplier driven to -0.2773333333333331 by step "
                "size 1.0 (mis-scaled; its limit is 1.0) on a sync error of 0.5453333333333332 "
                "ticks, 1.9 rounds after the node's last update",
        PISYNC: "node 2 at t=3: pisync rate multiplier driven to -0.2773333333333331 by step "
                "size 2.0 (mis-scaled; its limit is 2.0) on a sync error of 0.5453333333333332 "
                "ticks, 1.9 rounds after the node's last update"}),
])
def test_two_protocols_tell_a_driven_rate_as_the_first(protocols, fraction, drift, policy, told):
    # Both run one trajectory; its failure is told as the first protocol in
    # config order, in that protocol's step units, as when it runs alone.
    cfg = config(drift={2: drift}, protocols=protocols, step_fraction=fraction,
                 step_policy=policy)
    with pytest.raises(ContractViolation) as raised:
        run(cfg)
    assert str(raised.value) == told[protocols[0]]


def test_a_fixed_step_reads_back_as_its_fraction_of_the_limit_up_to_one_ulp():
    # At f0 = 1e3 grades' error scale is 2,000, not a power of two: the fraction
    # 1e-3 of the gain limit 2e-3 reads back over the scale one ulp off the step
    # 1e-3 of grades' step size limit, 1e-9.
    fraction, scale = 1e-3, error_scale(GRADES, 1.0, 1e3)
    step = fraction * step_size_limit(GRADES, 1.0, 1e3)
    told = (fraction * gain_limit(1.0, 1e3)) / scale
    assert told != step and abs(told - step) <= math.ulp(step)
    trace = run(config(topology=Topology.line(3), nominal_freq=1e3, step_fraction=fraction))
    assert len(trace.events) >= 18  # nodes 2 and 3 take each of the 9 or 10 floods
    assert {e.gain / scale for e in trace.events} == {told}
    assert trace.meta["final_state"][GRADES]["step_size"] == (told,) * 3


@pytest.mark.parametrize("entry", ["beacon", "delivery"])
def test_contract_violation_names_the_node_whose_event_raised(entry, monkeypatch):
    # A beacon's failure is its sender's, a delivery's its receiver's.
    cfg = config(topology=Topology.line(3), duration=5.0, step_fraction=0.1)
    if entry == "beacon":
        # Aligned phases and no drift: at t = 1 node 2 takes flood 1 from the
        # reference, at the hardware reading 1 + 1.5 injected here.  At t = 2
        # its beacon carries flood 1 to node 3, who can accept it, so node 2
        # reads its clock at 2 < 2.5 before any delivery of t = 2 runs.
        real, reads = clocks.ClockTable.read, []

        def shifted(self, row, t):
            reads.append((row, t))
            return real(self, row, t) + (1.5 if row == 1 else 0.0)

        monkeypatch.setattr(clocks.ClockTable, "read", shifted)
        with pytest.raises(ContractViolation, match=r"^node 2 at t=2: logical read at hw=2\.0 "
                                                    r"before last update hw=2\.5$"):
            run(cfg)
        assert reads == [(1, 1.0)]
        return
    # The first update node 3 receives, found from the plain run's events.
    events = run(cfg).events
    fail_at = [e.node for e in events].index(3) + 1
    real, calls = sim.grades_on_message, []

    def failing(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise ContractViolation("boom")
        return real(*args)

    monkeypatch.setattr(sim, "grades_on_message", failing)
    when = events[fail_at - 1].time
    with pytest.raises(ContractViolation, match=rf"^node 3 at t={when:.9g}: boom$"):
        run(cfg)


def test_a_sender_checks_its_clock_even_when_every_slot_is_stale(monkeypatch):
    # Aligned phases and no drift: at t = 2 node 3 takes flood 1 from node 2, at
    # the hardware reading 2 + 1.5 injected here.  At t = 3 node 2 already holds
    # flood 2, so node 3's one slot is stale; node 3 still reads its clock at
    # 3 < 3.5 for its beacon, before any delivery of t = 3 runs.
    # Unchecked, the run fails only in trace assembly, naming no node.
    real = clocks.ClockTable.read
    monkeypatch.setattr(clocks.ClockTable, "read",
                        lambda self, row, t: real(self, row, t) + (1.5 if row == 2 else 0.0))
    with pytest.raises(ContractViolation, match=r"^node 3 at t=3: logical read at hw=3\.0 "
                                                r"before last update hw=3\.5$"):
        run(config(topology=Topology.line(3), duration=5.0, step_fraction=0.1))


def test_the_final_state_shows_a_collapsed_adaptive_step():
    # Under noise the sign rule divides the step by 3 about as often as it
    # doubles it, so over 200 rounds the step of the one non-reference node
    # falls many orders of magnitude below where it started.
    cfg = config(step_policy="adaptive", delay_std=1e-3, duration=200.0)
    trace = run(cfg)
    last = trace.node_events(2)[-1]
    step = last.gain / error_scale(GRADES, 1.0, 1.0)
    final = trace.meta["final_state"][GRADES]
    assert final == {"step_size": (step,) * 3, "rate_multiplier": (last.rate_multiplier,) * 3}
    assert 0 < step < cfg.step_fraction * step_size_limit(GRADES, 1.0, 1.0) * 1e-6


def test_the_final_state_spans_every_node_but_the_reference():
    drift = {2: ConstantDrift(1e-3), 3: ConstantDrift(2e-3), 4: ConstantDrift(-1e-3)}
    trace = run(config(topology=Topology.line(4), drift=drift,
                       protocols=(GRADES, PISYNC), step_fraction=0.25,
                       duration=60.0))
    for proto, step in ((GRADES, 0.25), (PISYNC, 0.5)):
        final = trace.meta["final_state"][proto]
        assert final["step_size"] == (step, step, step)
        rates = sorted(trace.node_events(u)[-1].rate_multiplier for u in (2, 3, 4))
        assert final["rate_multiplier"] == tuple(rates)  # the reference's 1.0 is left out
    single = run(config(topology=Topology.line(1))).meta["final_state"][GRADES]
    assert all(math.isnan(x) for x in single["step_size"] + single["rate_multiplier"])


# ---------------------------------------------------------------- trace utilities


def test_global_skew_examples():
    def skew(*rows):
        readings = np.array(rows, dtype=float)
        trace = SkewTrace(
            times=np.arange(len(rows), dtype=float),
            node_ids=tuple(range(1, readings.shape[1] + 1)),
            protocols=(GRADES,),
            readings=readings,
            rate_multipliers=np.ones_like(readings),
            hw_rates=np.ones_like(readings),
        )
        return trace.global_skew().tolist()

    assert skew([5.0, 3.0, 9.0], [4.0, 4.0, 4.0]) == [6.0, 0.0]
    assert skew([7.0], [2.0]) == [0.0, 0.0]


def test_convergence_time_examples():
    times = [0.0, 1.0, 2.0, 3.0]
    assert convergence_time(times, [0.0, 0.0, 0.0, 0.0], 1.0) == 0.0
    assert convergence_time(times, [5.0, 3.0, 0.5, 0.1], 1.0) == 2.0
    assert convergence_time(times, [5.0, 0.5, 2.0, 0.1], 1.0) == 3.0  # relapse resets
    assert convergence_time(times, [2.0, 1.0, 1.0, 1.0], 1.0) == 1.0  # boundary counts
    assert convergence_time(times, [5.0, 5.0, 5.0, 2.0], 1.0) is None
    with pytest.raises(ValueError):
        convergence_time([0.0, 1.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        convergence_time([], [], 0.5)


def test_steady_mean_skew_averages_the_trailing_window(monkeypatch):
    times = np.arange(10.0)
    node1 = np.zeros(10)
    node2 = np.array([9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
    trace = SkewTrace(
        times=times,
        node_ids=(1, 2),
        protocols=(GRADES,),
        readings=np.column_stack([node1, node2]),
        rate_multipliers=np.ones((10, 2)),
        hw_rates=np.ones((10, 2)),
    )
    monkeypatch.setattr(scenarios, "run", lambda config: trace)
    rows = scaling_experiment(scaling(diameters=(1, 2), seeds=1))
    assert rows == [(1, 0, 2.0), (2, 0, 2.0)]


def test_fit_power_exponent_recovers_a_square_root_law():
    aggregate = {4: (2.0, 0.0), 9: (3.0, 0.0), 16: (4.0, 0.0), 25: (5.0, 0.0)}
    slope, intercept = fit_power_exponent(aggregate)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_power_exponent({1: (0.0, 0.0), 2: (1.0, 0.0)})


def test_scaling_experiment_is_quiet_without_noise_and_deterministic():
    # Without noise no seed matters, and the staggered starts' offset transient
    # (a steady skew near 3e-3 after 10 rounds) dies out.
    params = scaling(diameters=(1, 2), seeds=2, rounds=80, step_size=0.3)
    quiet = scaling_experiment({**params, "max_deviation": 0.0, "delay_std": 0.0})
    skew = {(d, seed): m for d, seed, m in quiet}
    assert all(skew[d, 0] == skew[d, 1] < 1e-15 for d in (1, 2))
    a = scaling_experiment({**params, "rounds": 10})
    b = scaling_experiment({**params, "rounds": 10})
    assert a == b
    assert [(d, seed) for d, seed, _ in a] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert all(m > 0 for _, _, m in a)


def test_scaling_experiment_rejects_a_repeated_diameter():
    # Running a diameter twice would duplicate its rows and misstate its spread.
    for diameters in ((4, 4, 9), (4,)):
        with pytest.raises(ValueError, match=r"^parameter diameters needs 2 or more values, "
                                             rf"none repeated, got {re.escape(str(diameters))}$"):
            scaling_experiment(scaling(diameters=diameters, seeds=2, rounds=10))


def test_a_long_scaling_line_blames_the_missed_rounds_not_its_stable_step():
    # Node 925 of a 1,001-node line goes 28 rounds without an update, and one
    # sync error of 9.8 ticks then drives its rate below zero at a step of 0.05.
    with pytest.raises(ContractViolation) as raised:
        scaling_experiment(scaling(diameters=(1000, 2000), seeds=1, seed=1))
    told = str(raised.value)
    assert told.startswith("node 925 at t=135.921842: grades rate multiplier driven to -0.03")
    assert "by step size 0.05 (below its limit 1.0) on a sync error of 9.81" in told
    assert told.endswith(", 27.9998197 rounds after the node's last update")
    assert "mis-scaled" not in told


# ---------------------------------------------------------------- CSV output


def test_trace_csv_layout(tmp_path):
    trace = run(config(duration=1.0, protocols=(GRADES, PISYNC)))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# unit_mode=normalized"
    assert lines[1] == "# seed=3"
    assert lines[2] == "# beacon_period=1.0"
    assert lines[3] == "# nominal_freq=1.0"
    assert lines[4] == "t_seconds,node_id,protocol,logical_ticks"
    data = lines[5:]
    assert len(data) == 4 * 2 * 2  # samples x protocols x nodes
    assert data[0] == "0,1,grades,0"
    assert all(len(row.split(",")) == 4 for row in data)


@pytest.mark.parametrize("write, header, cells", [
    (write_trace_csv, "t_seconds,node_id,protocol,logical_ticks",
     lambda trace, i: zip([f"{u}," for u in trace.node_ids], trace.readings[i].tolist())),
    (write_skew_csv, "t_seconds,protocol,global_skew_ticks",
     lambda trace, i: [("", trace.global_skew()[i].item())]),
], ids=["trace.csv", "skew.csv"])
def test_trace_csv_rows_match_a_value_by_value_formatter(tmp_path, write, header, cells):
    node_ids = (1, 42, 305, 7000)
    times = np.array([0.0, 1.0 / 3.0, 2e5])
    values = np.array([
        [-1.5, 1e-300, 1e20, 0.1],
        [-0.0, 123456789.123, -1e-300, 5e-324],
        [-1e20, 2.5e-7, math.inf, 30.000000001],
    ])
    trace = SkewTrace(
        times=times, node_ids=node_ids, protocols=(GRADES, PISYNC),
        readings=values, rate_multipliers=np.ones(values.shape),
        hw_rates=np.ones(values.shape), meta={"seed": 4},
    )
    path = tmp_path / "out.csv"
    write(trace, path)
    expected = ["# seed=4", header]
    for i, t in enumerate(times.tolist()):
        for proto in trace.protocols:
            for label, v in cells(trace, i):
                expected.append(f"{t:.9g},{label}{proto},{v:.9g}")
    assert path.read_text() == "\n".join(expected) + "\n"


def test_skew_csv_layout_and_formatting(tmp_path):
    trace = run(config(duration=2.0))
    path = tmp_path / "skew.csv"
    write_skew_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[4] == "t_seconds,protocol,global_skew_ticks"
    # Nine significant digits: the 1/3-round sample grid is the giveaway.
    assert lines[6].startswith("0.333333333,grades,")
    assert len(lines) == 5 + len(trace.times)


# ---------------------------------------------------------------- README


def test_readme_states_the_package_line_count():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = sum(len(p.read_text().splitlines()) for p in Path(sim.__file__).parent.glob("*.py"))
    stated = re.search(r"The package is ([\d,]+) lines of Python under `src/`", readme)
    assert stated is not None
    assert int(stated[1].replace(",", "")) == lines


def test_readme_library_example_runs(capsys):
    # The code block under the "## Library example" heading, run as written.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "SimConfig(" in example
    exec(compile(example, str(readme), "exec"), {})
    skews = [float(x) for x in capsys.readouterr().out.split()]
    assert len(skews) == 2 and all(math.isfinite(x) and x >= 0 for x in skews)
