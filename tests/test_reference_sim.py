"""``sim.run`` against the naive reference simulator in ``reference_sim.py``."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_sim import reference_run

from gradesync import GRADES, PISYNC, ContractViolation, PiecewiseDrift, SimConfig, Topology, run
from gradesync.protocols import step_size_limit


@st.composite
def graphs(draw) -> Topology:
    """A connected graph of 2-12 nodes: a random tree plus random chords, ids not in order."""
    n = draw(st.integers(2, 12))
    ids = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True))
    edges = {frozenset((ids[draw(st.integers(0, i - 1))], ids[i])) for i in range(1, n)}
    for a, c in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=n)):
        if a != c:
            edges.add(frozenset((a, c)))
    edges = tuple(tuple(e) for e in sorted(edges, key=sorted))
    return Topology(nodes=tuple(ids), edges=edges, reference=draw(st.sampled_from(ids)))


@st.composite
def configs(draw) -> SimConfig:
    topology = draw(graphs())
    f0 = draw(st.sampled_from([1.0, 1e3]))
    # 0.7 and 0.1 s rounds give round-tick sums that are not exact multiples.
    b = draw(st.sampled_from([1.0, 0.7, 0.1]))
    max_dev = draw(st.sampled_from([0.0, 1e-3, 0.2])) * f0
    kind = draw(st.sampled_from(["random-constant", "white", "piecewise"]))
    if kind == "piecewise":
        step = st.tuples(st.floats(0.1, 8.0), st.floats(-0.2, 0.2))
        drift = {}
        for u in topology.nodes:
            steps = sorted(draw(st.lists(step, max_size=3, unique_by=lambda s: s[0])))
            drift[u] = PiecewiseDrift(((0.0, draw(st.floats(-0.2, 0.2)) * f0),)
                                      + tuple((s, d * f0) for s, d in steps))
    else:
        drift = kind
    protocols = draw(st.sampled_from([(GRADES,), (PISYNC,), (GRADES, PISYNC)]))
    adaptive = draw(st.booleans())
    step_size = None if adaptive else {
        p: draw(st.floats(0.02, 0.9)) * step_size_limit(p, b, f0) for p in protocols
    }
    return SimConfig(
        topology=topology,
        beacon_period=b,
        duration=draw(st.integers(1, 12)) * b + draw(st.sampled_from([0.0, 0.4 * b])),
        nominal_freq=f0,
        max_deviation=max_dev,
        delay_std=draw(st.sampled_from([0.0, 1e-3])),
        drift=drift,
        protocols=protocols,
        step_policy="adaptive" if adaptive else "fixed",
        step_size=step_size,
        sample_period=draw(st.sampled_from([None, 0.25 * b, 0.7 * b])),
        phase_mode=draw(st.sampled_from(["aligned", "random", "staggered"])),
        drop_probability=draw(st.sampled_from([0.0, 0.3])),
        quantize_ticks=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _outcome(simulate, config):
    try:
        return simulate(config)
    except ContractViolation as err:
        return str(err)


@settings(max_examples=120, deadline=None)
@given(config=configs())
# Quantize mode's read-before-update error: sim.run takes its start readings
# from ClockTable.sample as floats, so ClockTable.read must return floats too.
@example(config=SimConfig(
    Topology(nodes=(1, 2), edges=((1, 2),), reference=1),
    beacon_period=0.7, duration=0.7,
    drift="random-constant", protocols=(GRADES,), step_policy="fixed",
    step_size={GRADES: 1.0204081632653064}, phase_mode="staggered",
    quantize_ticks=True, seed=0,
))
def test_the_simulator_equals_the_naive_reference(config):
    trace, expected = _outcome(run, config), _outcome(reference_run, config)
    if isinstance(expected, str):
        assert trace == expected
        return
    assert trace.node_ids == expected["node_ids"]
    assert trace.times.tobytes() == expected["times"].tobytes()
    for proto in config.protocols:
        assert trace.readings[proto].tobytes() == expected["readings"][proto].tobytes()
        assert (trace.rate_multipliers[proto].tobytes()
                == expected["rate_multipliers"][proto].tobytes())
    assert trace.hw_rates.tobytes() == expected["hw_rates"].tobytes()
    assert repr(trace.events) == repr(expected["events"])
    assert trace.meta["deliveries"] == expected["deliveries"]


def test_the_reference_sees_the_instant_rule_on_a_diamond():
    # The hand-counted diamond of test_sim: 35 accepted floods, 61 stale.
    diamond = Topology(nodes=(1, 2, 3, 4), edges=((1, 2), (1, 3), (2, 4), (3, 4)))
    config = SimConfig(topology=diamond, beacon_period=1.0, duration=12.0,
                       protocols=(GRADES, PISYNC), step_policy="fixed",
                       step_size={GRADES: 0.5, PISYNC: 1.0}, phase_mode="aligned", seed=3)
    expected = reference_run(config)
    assert expected["deliveries"] == {"accepted": 35, "stale": 61, "dropped": 0}
    assert np.array_equal(run(config).readings[GRADES], expected["readings"][GRADES])
