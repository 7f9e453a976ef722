"""Event-driven simulator: topology, determinism, protocol isolation,
flood propagation, trace utilities, and CSV output."""

import hashlib
import math

import numpy as np
import pytest

from gradesync import (
    GRADES,
    PISYNC,
    ConstantDrift,
    ContractViolation,
    PiecewiseDrift,
    SimConfig,
    SkewTrace,
    Topology,
    convergence_time,
    fit_power_exponent,
    run,
    scaling_experiment,
    write_skew_csv,
    write_trace_csv,
)
from gradesync.sim import steady_mean_skew


def config(**kw):
    base = dict(
        topology=Topology.line(2),
        beacon_period=1.0,
        duration=10.0,
        protocols=(GRADES,),
        step_policy="fixed",
        step_size=0.5,
        phase_mode="aligned",
        seed=3,
    )
    base.update(kw)
    return SimConfig(**base)


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
    good = config()
    assert good.resolved_step_size(GRADES) == 0.5
    with pytest.raises(ValueError):
        config(beacon_period=0.0)
    with pytest.raises(ValueError):
        config(duration=0.0)
    with pytest.raises(ValueError):
        config(max_deviation=1.0)  # must stay below nominal_freq
    with pytest.raises(ValueError):
        config(delay_std=-1e-6)
    with pytest.raises(ValueError):
        config(unit_mode="raw")
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
    with pytest.raises(ValueError):
        config(sample_period=0.0)


def test_step_size_resolution_rules():
    with pytest.raises(ValueError):
        config(step_size=None).resolved_step_size(GRADES)  # fixed needs a value
    with pytest.raises(ValueError):
        config(step_size=1.0).resolved_step_size(GRADES)  # boundary is excluded
    adaptive = config(step_policy="adaptive", step_size=None)
    assert adaptive.resolved_step_size(GRADES) == 0.5  # half the limit by default
    assert adaptive.resolved_step_size(PISYNC) == 1.0
    at_limit = config(step_policy="adaptive", step_size=1.0)
    assert at_limit.resolved_step_size(GRADES) == 1.0  # inclusive for adaptive
    per_proto = config(
        protocols=(GRADES, PISYNC), step_size={GRADES: 0.25, PISYNC: 0.75}
    )
    assert per_proto.resolved_step_size(GRADES) == 0.25
    assert per_proto.resolved_step_size(PISYNC) == 0.75
    with pytest.raises(ValueError):
        config(step_policy="adaptive", step_size=1.0001).resolved_step_size(GRADES)


def test_unknown_drift_spec_is_rejected_by_the_simulator():
    with pytest.raises(ValueError, match="drift spec"):
        run(config(drift="pink"))


# ---------------------------------------------------------------- basic dynamics


def test_identical_noise_free_clocks_stay_at_zero_skew():
    trace = run(config(duration=12.0))
    assert np.all(trace.global_skew(GRADES) == 0.0)
    assert all(e.error == 0.0 for e in trace.events)


def test_random_phases_converge_to_near_zero_skew_without_noise():
    # step 0.5 at unit round geometry zeroes the rate error after two
    # accepted messages; afterwards the logical clocks agree to rounding.
    trace = run(config(phase_mode="random", duration=12.0, seed=11))
    skew = trace.global_skew(GRADES)
    late = trace.times >= 3.0
    assert skew[late].max() < 1e-9
    assert skew[0] > 1e-3  # the random phase gap is visible before syncing


def test_constant_drift_is_corrected_and_events_are_recorded():
    trace = run(config(drift={2: ConstantDrift(1e-4)}, max_deviation=1e-4, duration=12.0))
    events = trace.node_events(2, GRADES)
    assert [e.seq for e in events] == list(range(1, len(events) + 1))
    assert events[0].error == pytest.approx(1e-4, rel=1e-6)
    assert abs(events[-1].error) < 1e-12
    assert trace.global_skew(GRADES)[-1] < 1e-9


def test_reference_node_never_adjusts_itself():
    cfg = config(
        topology=Topology.line(3),
        drift={1: ConstantDrift(3e-5), 2: ConstantDrift(-5e-5), 3: ConstantDrift(7e-5)},
        max_deviation=1e-4,
        delay_std=1e-4,
        phase_mode="random",
        step_policy="adaptive",
        step_size=None,
        duration=20.0,
        seed=2,
    )
    trace = run(cfg)
    col = trace.node_column(1)
    assert np.all(trace.rate_multipliers[GRADES][:, col] == 1.0)
    assert not [e for e in trace.events if e.node == 1]
    # Its logical reading is its hardware reading: phase + (f0 + dev) * t.
    phase = trace.readings[GRADES][0, col]
    expected = phase + (1.0 + 3e-5) * trace.times
    assert np.allclose(trace.readings[GRADES][:, col], expected, rtol=1e-12, atol=1e-9)


def test_trace_sampling_grid():
    trace = run(config(duration=10.0))
    assert len(trace.times) == 31  # default sample period: a third of a round
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(10.0, abs=1e-9)
    coarse = run(config(duration=10.0, sample_period=1.0))
    assert np.array_equal(coarse.times, np.arange(11.0))
    assert coarse.readings[GRADES].shape == (11, 2)
    assert coarse.hw_rates.shape == (11, 2)
    assert coarse.meta["seed"] == 3
    assert coarse.meta["unit_mode"] == "normalized"


# ---------------------------------------------------------------- determinism & isolation


def test_identical_configs_give_bitwise_identical_traces():
    cfg = config(
        topology=Topology.line(4),
        drift="white",
        max_deviation=1e-4,
        delay_std=1e-4,
        phase_mode="random",
        step_policy="adaptive",
        step_size=None,
        duration=15.0,
        seed=7,
    )
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.readings[GRADES], b.readings[GRADES])
    assert np.array_equal(a.rate_multipliers[GRADES], b.rate_multipliers[GRADES])
    assert a.events == b.events
    c = run(config(**{**cfg.__dict__, "seed": 8}))
    assert not np.array_equal(a.readings[GRADES], c.readings[GRADES])


def test_protocol_traces_do_not_depend_on_co_running_protocols():
    kw = dict(
        topology=Topology.line(3),
        drift="white",
        max_deviation=1e-4,
        delay_std=1e-4,
        phase_mode="random",
        step_policy="adaptive",
        step_size=None,
        duration=12.0,
        seed=5,
    )
    dual = run(config(protocols=(GRADES, PISYNC), **kw))
    only_g = run(config(protocols=(GRADES,), **kw))
    only_p = run(config(protocols=(PISYNC,), **kw))
    assert np.array_equal(dual.readings[GRADES], only_g.readings[GRADES])
    assert np.array_equal(dual.readings[PISYNC], only_p.readings[PISYNC])
    assert [e for e in dual.events if e.protocol == GRADES] == only_g.events
    assert [e for e in dual.events if e.protocol == PISYNC] == only_p.events


# A tree no scenario builds: ids that are neither contiguous nor sorted in the
# edges, a reference other than node 1 (with a leaf behind it), drops, recorded
# events and, under aligned phases, many tied event times.  The hashes were
# recorded before the simulator loop was last rewritten; any change in a
# reading, rate, event or draw order shows up here.
ODD_TREE = Topology(
    nodes=(3, 7, 10, 12, 20), edges=((7, 3), (7, 10), (10, 12), (7, 20)), reference=10
)
ODD_TREE_DRIFTS = {
    "white": "white",
    "mixed": {
        3: PiecewiseDrift(((0.0, 4e-4), (7.5, -6e-4), (20.0, 2e-4))),
        7: "white",
        12: ConstantDrift(-3e-4),
        20: PiecewiseDrift(((0.0, -1e-4), (11.0, 5e-4))),
    },
}
ODD_TREE_SHA256 = {
    ("aligned", "mixed"):
        "3837aff2c7a11b45b9e1673a14794aedc56801dfd06b95cd3055a9bf29bc76c0",
    ("aligned", "white"):
        "f668c583dd1c9be2a3f43dd1663bdc0b95b1ac1cde4f41bce56fc6e589d9a140",
    ("random", "mixed"):
        "260d56a05cae9597eaec88b35e19fa6f346c459838edc0447faa79bc918d20ea",
    ("random", "white"):
        "9599bc3482e7d442af926853def07116f58a253a7987b7eb2e6a3fdf161c6aa4",
    ("staggered", "mixed"):
        "44126d8e6d73b816f92deaf3b8403d5bb66b99e0f04f47d4a7be6eaa137bad46",
    ("staggered", "white"):
        "f531637559de34ed2377830ea6290b9bbdce379863d5772800571e863f3e85c5",
}


def trace_digest(trace: SkewTrace) -> str:
    h = hashlib.sha256()
    for proto in trace.protocols:
        h.update(trace.readings[proto].tobytes())
        h.update(trace.rate_multipliers[proto].tobytes())
    h.update(trace.hw_rates.tobytes())
    h.update(repr(trace.events).encode())
    return h.hexdigest()


@pytest.mark.parametrize("phase_mode, drift", sorted(ODD_TREE_SHA256))
def test_odd_tree_with_drops_matches_its_recorded_hash(phase_mode, drift):
    trace = run(SimConfig(
        topology=ODD_TREE,
        beacon_period=1.0,
        duration=40.0,
        max_deviation=1e-3,
        delay_std=1e-3,
        drift=ODD_TREE_DRIFTS[drift],
        protocols=(GRADES, PISYNC),
        step_policy="adaptive",
        step_size={GRADES: 1.0 / 16, PISYNC: 2.0 / 16},
        phase_mode=phase_mode,
        drop_probability=0.3,
        record_events=True,
        seed=17,
    ))
    assert len(trace.events) > 50
    assert trace_digest(trace) == ODD_TREE_SHA256[(phase_mode, drift)]


# ---------------------------------------------------------------- flooding


def test_floods_propagate_one_hop_per_round_with_aligned_phases():
    trace = run(config(topology=Topology.line(5), duration=10.0))
    for node, hop in ((2, 1), (3, 2), (4, 3), (5, 4)):
        events = trace.node_events(node, GRADES)
        assert events[0].time == pytest.approx(float(hop), abs=1e-9)
        assert events[0].seq == 1
        assert [e.seq for e in events] == list(range(1, len(events) + 1))


def test_staggered_phases_sweep_the_whole_line_within_one_round():
    trace = run(config(topology=Topology.line(3), phase_mode="staggered", duration=8.0))
    first_far = trace.node_events(3, GRADES)[0]
    assert first_far.seq == 1
    assert first_far.time == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-9)


def test_message_drops_thin_out_sync_events():
    kw = dict(duration=30.0, delay_std=0.0)
    clean = run(config(**kw))
    dropped = run(config(drop_probability=0.5, **kw))
    assert len(clean.node_events(2, GRADES)) == 30
    assert 0 < len(dropped.node_events(2, GRADES)) < 30


def test_mis_scaled_step_failure_reports_node_and_time():
    cfg = config(drift={2: ConstantDrift(0.6)}, max_deviation=0.7, step_size=0.9)
    with pytest.raises(ContractViolation, match=r"node 2 at t=1: "):
        run(cfg)


def test_quantized_hardware_still_synchronizes_coarsely():
    cfg = config(
        beacon_period=1.0,
        nominal_freq=1000.0,
        max_deviation=0.1,
        drift={2: ConstantDrift(0.1)},
        quantize_ticks=True,
        step_size=0.4e-6,
        duration=40.0,
    )
    trace = run(cfg)
    assert trace.global_skew(GRADES)[-1] < 5.0  # within a few ticks of each other


@pytest.mark.parametrize("phase_mode", ["random", "staggered"])
def test_quantized_ticks_with_fractional_start_phases_sample_cleanly(phase_mode):
    # Each logical clock starts at the floored hardware reading, so the first
    # sample does not read before the clock's anchor.
    trace = run(SimConfig(
        topology=Topology.line(3), beacon_period=1.0, duration=5.0, nominal_freq=1e3,
        step_policy="adaptive", quantize_ticks=True, phase_mode=phase_mode, seed=0,
    ))
    first = trace.readings[GRADES][0]
    assert np.all(first == np.floor(first))
    assert np.any(first > 0)  # not all start phases are zero


# ---------------------------------------------------------------- trace utilities


def test_global_skew_examples():
    def skew(*rows):
        readings = np.array(rows, dtype=float)
        trace = SkewTrace(
            times=np.arange(len(rows), dtype=float),
            node_ids=tuple(range(1, readings.shape[1] + 1)),
            protocols=(GRADES,),
            readings={GRADES: readings},
            rate_multipliers={GRADES: np.ones_like(readings)},
            hw_rates=np.ones_like(readings),
        )
        return trace.global_skew(GRADES).tolist()

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


def test_steady_mean_skew_averages_the_trailing_window():
    times = np.arange(10.0)
    node1 = np.zeros(10)
    node2 = np.array([9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
    trace = SkewTrace(
        times=times,
        node_ids=(1, 2),
        protocols=(GRADES,),
        readings={GRADES: np.column_stack([node1, node2])},
        rate_multipliers={GRADES: np.ones((10, 2))},
        hw_rates=np.ones((10, 2)),
    )
    assert steady_mean_skew(trace, GRADES, burn_fraction=0.5) == 2.0


def test_fit_power_exponent_recovers_a_square_root_law():
    aggregate = {4: (2.0, 0.0), 9: (3.0, 0.0), 16: (4.0, 0.0), 25: (5.0, 0.0)}
    slope, intercept = fit_power_exponent(aggregate)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_power_exponent({1: (0.0, 0.0), 2: (1.0, 0.0)})


def test_scaling_experiment_is_quiet_without_noise_and_deterministic():
    quiet = scaling_experiment(
        (1, 2),
        (0, 1),
        max_deviation=0.0,
        delay_std=0.0,
        rounds=10,
        step_size=0.3,
        phase_mode="aligned",  # staggered starts carry a decaying offset transient
    )
    assert all(m == 0.0 for _, _, m in quiet.rows)
    a = scaling_experiment((1, 2), (0, 1), rounds=10, step_size=0.3)
    b = scaling_experiment((1, 2), (0, 1), rounds=10, step_size=0.3)
    assert a == b
    assert {d for d, _, _ in a.rows} == {1, 2}
    assert set(a.aggregate) == {1, 2}
    assert all(m > 0 for _, _, m in a.rows)


# ---------------------------------------------------------------- CSV output


def test_trace_csv_layout(tmp_path):
    trace = run(config(duration=3.0, sample_period=1.0, protocols=(GRADES, PISYNC)))
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


def test_skew_csv_layout_and_formatting(tmp_path):
    trace = run(config(duration=2.0))
    path = tmp_path / "skew.csv"
    write_skew_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[4] == "t_seconds,protocol,global_skew_ticks"
    # Nine significant digits: the 1/3-round sample grid is the giveaway.
    assert lines[6].startswith("0.333333333,grades,")
    assert len(lines) == 5 + len(trace.times)
