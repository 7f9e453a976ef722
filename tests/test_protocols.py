"""Protocol transition functions: error scales and step limits, gain
adaptation, the logical reading the update rule takes its error from, and the update rule."""

import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_sim import logical_reading, reference_update

from gradesync import (
    GRADES,
    PISYNC,
    ContractViolation,
    SimConfig,
    Topology,
    adapt_step,
    error_scale,
    run,
    step_size_limit,
)
from gradesync.protocols import gain_limit, update


class Node(NamedTuple):
    """One node's state, as ``sim.run`` keeps it: clock, gain, last error."""

    value: float = 0.0
    rate: float = 1.0
    hw_at: float = 0.0
    gain: float = 0.1
    error: float = 0.0

    def read(self, hw):
        return logical_reading(self[:3], hw)


def receive(before, received, hw_now, beacon_period, nominal_freq, adapt=True):
    """``update`` with the gain bound ``sim.run`` passes, ``gain_limit``, for either protocol.

    Returns the node as ``sim.run`` stores it afterwards: its clock jumped onto
    ``received`` at ``hw_now``, with the new rate, gain and error.
    """
    bound = gain_limit(beacon_period, nominal_freq)
    error, gain, rate = update(*before, received, hw_now, bound, adapt)
    return Node(received, rate, hw_now, gain, error)


# ---------------------------------------------------------------- arithmetic


def test_error_gradient_examples():
    # grades' gain carries the gradient of the squared error; pisync's the error.
    assert error_scale(GRADES, 30.0, 1e6) * 0.0 == 0.0
    assert error_scale(GRADES, 1.0, 1.0) * 1.0 == 2.0
    assert error_scale(GRADES, 30.0, 1.0) * 0.003 == pytest.approx(0.18, rel=1e-12)
    assert error_scale(PISYNC, 30.0, 1e6) == 1.0


def test_step_size_limits():
    assert step_size_limit(GRADES, 1.0, 1.0) == 1.0
    assert step_size_limit(PISYNC, 1.0, 1.0) == 2.0
    assert step_size_limit(GRADES, 30.0, 1e6) == pytest.approx((30e6) ** -2, rel=1e-12)
    assert step_size_limit(PISYNC, 30.0, 1e6) == pytest.approx(2 / 30e6, rel=1e-12)
    with pytest.raises(ValueError):
        step_size_limit("ntp", 1.0, 1.0)


@pytest.mark.parametrize(
    "protocol, beacon_period, nominal_freq",
    [(GRADES, 1e-300, 1.0), (GRADES, 1e300, 1.0), (PISYNC, 1e-320, 1.0), (PISYNC, 1e300, 1e10)],
)
def test_step_size_limit_that_is_not_finite_and_positive_names_its_inputs(
    protocol, beacon_period, nominal_freq
):
    # The limit overflows to inf (first and third case) or underflows to 0.
    named = f"beacon_period={beacon_period:g} and nominal_freq={nominal_freq:g} "
    with pytest.raises(ValueError, match=re.escape(named)):
        step_size_limit(protocol, beacon_period, nominal_freq)


def test_adapt_step_doubles_on_sign_agreement():
    assert adapt_step(0.2, 1.0, 3.0, gain_max=1.0) == 0.4
    assert adapt_step(0.2, -0.5, -0.1, gain_max=1.0) == 0.4


def test_adapt_step_shrinks_on_sign_flip_or_zero():
    assert adapt_step(0.3, 1.0, -1.0, gain_max=1.0) == 0.3 / 3.0
    assert adapt_step(0.3, 0.0, 5.0, gain_max=1.0) == 0.3 / 3.0
    assert adapt_step(0.3, 5.0, 0.0, gain_max=1.0) == 0.3 / 3.0  # first update


def test_adapt_step_clamps_growth_to_the_stability_limit():
    assert adapt_step(0.8, 1.0, 1.0, gain_max=1.0) == 1.0


def test_adapt_step_keeps_previous_gain_on_underflow():
    tiny = 5e-324  # smallest subnormal; dividing by three rounds to zero
    assert tiny / 3.0 == 0.0
    assert adapt_step(tiny, 1.0, -1.0, gain_max=1.0) == tiny


@settings(max_examples=200, deadline=None)
@given(
    gain=st.floats(1e-300, 1.0),
    now=st.floats(-10.0, 10.0),
    prev=st.floats(-10.0, 10.0),
    bound=st.floats(1e-3, 2.0),
)
def test_adapt_step_stays_positive_and_bounded(gain, now, prev, bound):
    gain = min(gain, bound)
    out = adapt_step(gain, now, prev, bound)
    assert 0.0 < out <= bound


# ---------------------------------------------------------------- logical reading


def reading(value, rate, hw_at, hw):
    """Clock ``(value, rate, hw_at)`` read at ``hw`` by ``update``: its error on a payload of 0."""
    return update(value, rate, hw_at, 0.0, 0.0, 0.0, hw, gain_max=1.0, adapt=False)[0]


def test_logical_read_examples():
    assert reading(0.0, 1.0, 0.0, 7.0) == 7.0
    assert reading(100.0, 0.5, 10.0, 30.0) == 110.0
    assert reading(42.0, 1.3, 5.0, 5.0) == 42.0  # no elapsed hardware ticks


def test_logical_read_rejects_hardware_rollback():
    with pytest.raises(ContractViolation, match="before last update hw=100.0"):
        reading(0.0, 1.0, 100.0, 99.0)


def test_logical_clock_rate_applies_from_the_update_point():
    assert reading(10.0, 2.0, 10.0, 10.0) == 10.0
    assert reading(10.0, 2.0, 10.0, 13.0) == 16.0


@settings(max_examples=100, deadline=None)
@given(
    value=st.floats(-1e6, 1e6),
    rate=st.floats(0.5, 2.0),
    hw0=st.floats(0.0, 1e6),
    dhw=st.floats(0.0, 1e6),
)
def test_logical_read_is_affine_in_hardware_ticks(value, rate, hw0, dhw):
    assert reading(value, rate, hw0, hw0 + dhw) == pytest.approx(value + rate * dhw,
                                                                 rel=1e-12, abs=1e-9)


# ---------------------------------------------------------------- the update rule


def test_every_message_is_applied():
    # Flood freshness is the caller's decision: the same reading twice is applied twice.
    before = Node(value=120.0, hw_at=1.0)
    once = receive(before, 123.0, hw_now=1.0, beacon_period=1.0, nominal_freq=1.0)
    twice = receive(once, 123.0, hw_now=1.0, beacon_period=1.0, nominal_freq=1.0)
    assert (once.error, twice.error) == (-3.0, 0.0)


def test_accepted_message_jumps_the_clock_exactly_onto_the_payload():
    g = Node(value=100.05, hw_at=50.0)
    g2 = receive(g, 100.0, hw_now=50.0, beacon_period=1.0, nominal_freq=1.0)
    assert g2.read(50.0) == 100.0  # exact, not approximate
    assert g2.error == g.read(50.0) - 100.0  # the error before the jump


def test_offset_jump_is_exact_and_zero_error_keeps_the_rate():
    before = Node(value=100.0, rate=1.0001, hw_at=0.0, gain=1e-4)
    assert before.read(50.0) == pytest.approx(150.0050, rel=1e-12)
    moved = receive(before, 100.0, hw_now=50.0, beacon_period=1.0, nominal_freq=1.0,
                    adapt=False)
    assert moved.read(50.0) == 100.0
    # Setting the current reading back onto the clock leaves the rate and reads alone.
    same = receive(before, before.read(50.0), hw_now=50.0, beacon_period=1.0,
                   nominal_freq=1.0, adapt=False)
    assert same.rate == 1.0001
    for hw in (50.0, 61.5, 80.0):
        assert same.read(hw) == pytest.approx(before.read(hw), rel=1e-15)
    with pytest.raises(ContractViolation, match="before last update"):
        receive(before, 100.0, hw_now=-1.0, beacon_period=1.0, nominal_freq=1.0)


def test_grades_rate_update_example():
    # error 0.05 at unit round length: a step of 0.1 is a gain of 0.1 * 2 * B * f0 = 0.2,
    # and the rate moves by -gain * error.
    g = Node(value=100.05, hw_at=50.0, gain=0.1 * error_scale(GRADES, 1.0, 1.0))
    g2 = receive(g, 100.0, hw_now=50.0, beacon_period=1.0, nominal_freq=1.0,
                 adapt=False)
    assert g2.rate == 1.0 - 0.2 * (100.05 - 100.0)
    assert g2.rate == pytest.approx(0.99, rel=1e-12)
    assert g2.gain == 0.2
    assert g2.error == pytest.approx(0.05, rel=1e-12)


def test_pisync_rate_update_example():
    p = Node(value=100.05, hw_at=50.0, gain=0.1 * error_scale(PISYNC, 1.0, 1.0))
    p2 = receive(p, 100.0, hw_now=50.0, beacon_period=1.0, nominal_freq=1.0,
                 adapt=False)
    assert p2.rate == pytest.approx(0.995, rel=1e-12)
    assert p2.gain == 0.1
    assert p2.error == pytest.approx(0.05, rel=1e-12)


def test_zero_error_message_leaves_rate_alone_and_shrinks_the_gain():
    before = Node(value=100.0, rate=1.0003, hw_at=50.0, gain=0.3, error=2.0)
    after = receive(before, 100.0, hw_now=50.0, beacon_period=1.0, nominal_freq=1.0)
    assert after.rate == 1.0003
    assert after.gain == 0.3 / 3.0


def test_adaptation_uses_the_protocols_own_stability_limit():
    # Each protocol's step limit times its error scale is the one gain bound,
    # 2/(B*f0): 1/(B*f0)^2 * 2*B*f0 for grades and 2/(B*f0) * 1 for pisync, up to rounding.
    for b, f0 in ((1.0, 1.0), (30.0, 1e6), (0.7, 1e3), (3.0, 7.0)):
        for proto in (GRADES, PISYNC):
            assert (step_size_limit(proto, b, f0) * error_scale(proto, b, f0)
                    == pytest.approx(gain_limit(b, f0), rel=1e-15))
    assert gain_limit(1.0, 1.0) == 2.0
    assert gain_limit(30.0, 1e6) == 2.0 / 30e6
    g = Node(value=1.0, hw_at=0.0, gain=1.5, error=1.0)
    g2 = receive(g, 0.9, hw_now=0.0, beacon_period=1.0, nominal_freq=1.0)
    assert g2.gain == 2.0  # doubled 1.5 -> 3.0, clamped at 2/(B*f0)
    g3 = receive(Node(gain=5e-8, error=1.0), -1e-3, hw_now=0.0, beacon_period=30.0,
                 nominal_freq=1e6)
    assert g3.gain == 2.0 / 30e6  # doubled 5e-8 -> 1e-7, clamped at 2/(B*f0)


def test_mis_scaled_step_raises_instead_of_producing_a_frozen_clock():
    # A gain at its bound that meets an error of 10 (grades) or 30 (pisync) ticks.
    g = Node(value=10.0, hw_at=0.0, gain=2.0)
    with pytest.raises(ContractViolation, match=re.escape(
            "rate multiplier driven to -19.0 by gain 2.0 (mis-scaled; its limit is 2.0) "
            "on a sync error of 10.0 ticks, 0.0 hardware ticks after")):
        receive(g, 0.0, hw_now=0.0, beacon_period=1.0, nominal_freq=1.0,
                adapt=False)
    p = Node(value=30.0, hw_at=0.0, gain=0.1)
    with pytest.raises(ContractViolation, match=re.escape(
            "rate multiplier driven to -2.0 by gain 0.1 (below its limit 2.0) "
            "on a sync error of 30.0 ticks, 0.0 hardware ticks after")):
        receive(p, 0.0, hw_now=0.0, beacon_period=1.0, nominal_freq=1.0,
                adapt=False)


def test_a_driven_rate_names_the_sync_error_and_the_ticks_since_the_last_update():
    # A clock 3 hardware ticks past its last update reads 3 and hears -1: a sync
    # error of 4, which a gain of 0.5 drives to 1 - 2 = -1.
    with pytest.raises(ContractViolation) as raised:
        update(0.0, 1.0, 10.0, 0.5, 0.0, -1.0, 13.0, gain_max=1.0, adapt=False)
    assert str(raised.value) == (
        "rate multiplier driven to -1.0 by gain 0.5 (below its limit 1.0) on a sync error "
        "of 4.0 ticks, 3.0 hardware ticks after the node's last update"
    )


def _outcome(call):
    try:
        return call()
    except ContractViolation as err:
        return f"ContractViolation: {err}"


@settings(max_examples=200, deadline=None)
@given(
    clock=st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 2.0), st.floats(-1e3, 1e3)),
    gain=st.floats(1e-12, 200.0),
    prev_error=st.floats(-1e3, 1e3),
    received=st.floats(-1e3, 1e3),
    hw_now=st.floats(-1e3, 1e3),
    bound=st.floats(1e-6, 400.0),
    adapt=st.booleans(),
)
def test_update_is_the_reference_rule_bit_for_bit(clock, gain, prev_error, received, hw_now,
                                                  bound, adapt):
    # Down to the text of either contract violation: an early read (hw_now
    # before the clock's last update) or a rate driven to <= 0.
    args = (received, hw_now, bound, adapt)
    new = _outcome(lambda: update(*clock, gain, prev_error, *args))
    ref = _outcome(lambda: reference_update(clock, gain, prev_error, *args))
    if isinstance(ref, tuple):
        assert ref[2] == (received, ref[2][1], hw_now)
        ref = (ref[0], ref[1], ref[2][1])
    assert repr(ref) == repr(new)


@settings(max_examples=30, deadline=None)
@given(
    chords=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=6),
    phase_mode=st.sampled_from(["aligned", "random", "staggered"]),
    seed=st.integers(0, 2**16),
)
def test_sequence_numbers_never_decrease_and_stale_floods_are_noops(chords, phase_mode, seed):
    # The simulator owns flood freshness: on a six-node line with any chords
    # added, every node applies each flood once per protocol, in emission order.
    edges = {(u, u + 1) for u in range(1, 6)} | {(min(c), max(c)) for c in chords if c[0] != c[1]}
    trace = run(SimConfig(
        topology=Topology(tuple(range(1, 7)), tuple(sorted(edges))),
        beacon_period=1.0,
        duration=12.0,
        delay_std=1e-4,
        protocols=(GRADES, PISYNC),
        step_policy="adaptive",
        step_fraction=1.0 / 64,
        phase_mode=phase_mode,
        seed=seed,
    ))
    for u in range(2, 7):
        seqs = [e.seq for e in trace.node_events(u)]
        assert seqs == sorted(set(seqs))


@settings(max_examples=150, deadline=None)
@given(
    value=st.floats(-100.0, 100.0),
    payload=st.floats(-100.0, 100.0),
    hw=st.floats(0.0, 100.0),
)
def test_offset_exactness_holds_for_any_accepted_message(value, payload, hw):
    after = receive(Node(value=value, hw_at=hw, gain=1e-4), payload, hw_now=hw,
                    beacon_period=1.0, nominal_freq=1.0)
    assert after.read(hw) == payload


@settings(max_examples=100, deadline=None)
@given(
    errors=st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=30),
    beacon_period=st.floats(0.5, 40.0),
)
def test_adapted_step_never_exceeds_the_stability_limit(errors, beacon_period):
    limit = gain_limit(beacon_period, 1.0)
    g = Node(gain=limit / 8)
    hw = 0.0
    for err in errors:
        # Manufacture a reading that sits err below the local reading.
        received = g.read(hw) - err * beacon_period
        try:
            g = receive(g, received, hw_now=hw, beacon_period=beacon_period,
                        nominal_freq=1.0)
        except ContractViolation:
            return  # a mis-scaled update is rejected loudly, never applied
        assert 0.0 < g.gain <= limit


@settings(max_examples=100, deadline=None)
@given(
    errors=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=15),
    fraction=st.floats(0.01, 0.45),
    bf=st.floats(0.5, 50.0),
)
def test_equal_fraction_steps_give_identical_rate_trajectories(errors, fraction, bf):
    # At step sizes that are the same fraction of each protocol's stability
    # limit, both gains are 2 * fraction / (B * f0) up to rounding, so the two
    # controllers move in lockstep on identical inputs, down to both
    # rejecting the same update that would drive the rate non-positive.
    g = Node(gain=fraction * step_size_limit(GRADES, bf, 1.0) * error_scale(GRADES, bf, 1.0))
    p = Node(gain=fraction * step_size_limit(PISYNC, bf, 1.0) * error_scale(PISYNC, bf, 1.0))
    assert g.gain == pytest.approx(p.gain, rel=1e-15)
    hw = 0.0
    for err in errors:
        payload = g.read(hw) - err
        try:
            g = receive(g, payload, hw_now=hw, beacon_period=bf,
                        nominal_freq=1.0, adapt=False)
        except ContractViolation:
            with pytest.raises(ContractViolation):
                receive(p, payload, hw_now=hw, beacon_period=bf,
                        nominal_freq=1.0, adapt=False)
            return
        p = receive(p, payload, hw_now=hw, beacon_period=bf, nominal_freq=1.0,
                    adapt=False)
        assert g.rate == pytest.approx(p.rate, rel=1e-12)

