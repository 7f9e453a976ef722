"""``sim.run`` against the naive reference simulator in ``reference_sim.py``."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_sim import reference_run

from gradesync import (
    GRADES, PISYNC, ConstantDrift, ContractViolation, PiecewiseDrift, RandomConstantDrift,
    SimConfig, Topology, WhiteDrift, run,
)
from gradesync import clocks, protocols, sim
from gradesync.protocols import adapt_step


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
        drift = {"random-constant": RandomConstantDrift, "white": WhiteDrift}[kind](max_dev)
    protocols = draw(st.sampled_from([(GRADES,), (PISYNC,), (GRADES, PISYNC)]))
    adaptive = draw(st.booleans())
    return SimConfig(
        topology=topology,
        beacon_period=b,
        duration=draw(st.integers(1, 12)) * b + draw(st.sampled_from([0.0, 0.4 * b])),
        nominal_freq=f0,
        delay_std=draw(st.sampled_from([0.0, 1e-3])),
        drift=drift,
        protocols=protocols,
        step_policy="adaptive" if adaptive else "fixed",
        step_fraction=draw(st.floats(0.02, 1.0 if adaptive else 0.9)),
        phase_mode=draw(st.sampled_from(["aligned", "random", "staggered"])),
        drop_probability=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(0, 2**16)),
    )


def _outcome(simulate, config):
    try:
        return simulate(config)
    except ContractViolation as err:
        return str(err)


@settings(max_examples=120, deadline=None)
@given(config=configs())
# Runs of over 100 rounds, so each node's beacon targets are a long running
# sum, all computed in one pass before the first beacon.
@example(config=SimConfig(
    Topology(nodes=(3, 1, 7, 4), edges=((1, 3), (3, 7), (1, 4), (4, 7)), reference=3),
    beacon_period=0.7, duration=110 * 0.7, nominal_freq=1e3, delay_std=1e-3,
    drift=WhiteDrift(200.0), protocols=(GRADES, PISYNC), step_policy="adaptive",
    phase_mode="random", drop_probability=0.3, seed=11,
))
@example(config=SimConfig(
    Topology.line(5), beacon_period=1.0, duration=104.4, nominal_freq=1e3, delay_std=1e-3,
    drift=WhiteDrift(1.0), protocols=(GRADES,), step_policy="fixed", step_fraction=0.3,
    phase_mode="random", seed=5,
))
# Long lines for a few rounds: most beacons come from nodes that hold no flood
# yet, which the run counts as stale or dropped without a receiver loop.
@example(config=SimConfig(
    Topology.line(40), beacon_period=1.0, duration=2.5, nominal_freq=1e3, delay_std=1e-3,
    drift=WhiteDrift(1.0), protocols=(GRADES,), step_policy="fixed", step_fraction=0.3,
    phase_mode="random", seed=8,
))
@example(config=SimConfig(
    Topology.line(45), beacon_period=0.7, duration=3 * 0.7, nominal_freq=1e3, delay_std=1e-3,
    drift=RandomConstantDrift(0.2), protocols=(GRADES, PISYNC), step_policy="adaptive",
    step_fraction=0.5, phase_mode="random", drop_probability=0.3, seed=9,
))
# Rates driven below zero, told the same way: a stable pisync step, and an
# adaptive grades step grown to its limit ("mis-scaled").
@example(config=SimConfig(
    Topology.line(2), beacon_period=1.0, duration=10.0,
    drift={2: ConstantDrift(0.6)}, protocols=(PISYNC,), step_policy="fixed", step_fraction=0.9,
    phase_mode="aligned", seed=3,
))
@example(config=SimConfig(
    Topology.line(2), beacon_period=1.0, duration=10.0,
    drift={2: PiecewiseDrift(((0.0, 0.2), (2.0, 0.9)))}, protocols=(GRADES,),
    step_policy="adaptive", step_fraction=1.0, phase_mode="aligned", seed=3,
))
def test_the_simulator_equals_the_naive_reference(config):
    trace, expected = _outcome(run, config), _outcome(reference_run, config)
    if isinstance(expected, str):
        assert trace == expected
        return
    assert trace.node_ids == expected["node_ids"]
    assert trace.times.tobytes() == expected["times"].tobytes()
    # The run's one trajectory is each protocol's own lane in the reference.
    for proto in config.protocols:
        assert trace.readings.tobytes() == expected["readings"][proto].tobytes()
        assert trace.rate_multipliers.tobytes() == expected["rate_multipliers"][proto].tobytes()
        assert repr(trace.events) == repr(expected["events"][proto])
    assert trace.hw_rates.tobytes() == expected["hw_rates"].tobytes()
    assert trace.meta["deliveries"] == expected["deliveries"]


def test_the_reference_sees_the_instant_rule_on_a_diamond():
    # The hand-counted diamond of test_sim: 35 accepted floods, 61 stale.
    diamond = Topology(nodes=(1, 2, 3, 4), edges=((1, 2), (1, 3), (2, 4), (3, 4)))
    config = SimConfig(topology=diamond, beacon_period=1.0, duration=12.0,
                       protocols=(GRADES, PISYNC), step_policy="fixed",
                       step_fraction=0.5, phase_mode="aligned", seed=3)
    expected = reference_run(config)
    assert expected["deliveries"] == {"accepted": 35, "stale": 61, "dropped": 0}
    assert np.array_equal(run(config).readings, expected["readings"][GRADES])


# A config on which each reordering below changes the last bits of ``sim.run``.
PINNED = SimConfig(
    Topology.line(5), beacon_period=0.7, duration=14.0, delay_std=1e-3,
    drift=WhiteDrift(0.2), protocols=(GRADES, PISYNC), step_policy="adaptive", phase_mode="random",
    seed=4,
)


def _protocols_equal(trace, expected):
    return {p: trace.readings.tobytes() == expected["readings"][p].tobytes()
            for p in PINNED.protocols}


def test_the_reference_reads_its_clocks_with_its_own_arithmetic(monkeypatch):
    assert _protocols_equal(run(PINNED), reference_run(PINNED)) == {GRADES: True, PISYNC: True}

    def reordered(start, rate, knot, t):
        return knot + (rate * t - rate * start)

    monkeypatch.setattr(clocks, "_reading", reordered)
    assert _protocols_equal(run(PINNED), reference_run(PINNED)) == {GRADES: False, PISYNC: False}


def test_the_reference_updates_with_its_own_arithmetic(monkeypatch):
    def reordered(value, rate, hw_at, gain, prev_error, received, hw_now, gain_max, adapt=True):
        error = (value - received) + rate * (hw_now - hw_at)
        if adapt:
            gain = adapt_step(gain, error, prev_error, gain_max)
        rate -= gain * error
        return error, gain, rate

    for owner, name in ((protocols, "update"), (sim, "grades_on_message"),
                        (sim, "pisync_on_message")):
        monkeypatch.setattr(owner, name, reordered)
    assert _protocols_equal(run(PINNED), reference_run(PINNED)) == {GRADES: False, PISYNC: False}
