"""Protocol transition functions: error/signal arithmetic, step adaptation,
message acceptance, and beacon emission."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradesync import (
    GRADES,
    PISYNC,
    ContractViolation,
    LogicalClock,
    SyncMessage,
    SyncState,
    adapt_step,
    compute_error,
    error_scale,
    on_beacon_tick,
    on_message,
    step_size_limit,
)


def state(value=0.0, rate=1.0, hw=0.0, step=0.1, seq=0, prev=0.0):
    return SyncState(step, prev, seq, LogicalClock(value, rate, hw))


@pytest.mark.parametrize(
    "record, field",
    [
        (LogicalClock(1.0, 2.0, 3.0), "rate_multiplier"),
        (state(seq=3), "seq"),
        (state(), "clock"),
        (SyncMessage(2, (5.0, 6.0)), "readings"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no per-instance attribute dict either


# ---------------------------------------------------------------- arithmetic


def test_compute_error_examples():
    assert compute_error(100.0, 100.0) == 0.0
    assert compute_error(105.0, 100.0) == 5.0
    assert compute_error(100.0, 103.0) == -3.0


def test_error_gradient_examples():
    # grades' signal is the gradient of the squared error; pisync's is the error.
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


def test_adapt_step_doubles_on_sign_agreement():
    assert adapt_step(0.2, 1.0, 3.0, step_max=1.0) == 0.4
    assert adapt_step(0.2, -0.5, -0.1, step_max=1.0) == 0.4


def test_adapt_step_shrinks_on_sign_flip_or_zero():
    assert adapt_step(0.3, 1.0, -1.0, step_max=1.0) == pytest.approx(0.1)
    assert adapt_step(0.3, 0.0, 5.0, step_max=1.0) == pytest.approx(0.1)
    assert adapt_step(0.3, 5.0, 0.0, step_max=1.0) == pytest.approx(0.1)  # first update


def test_adapt_step_clamps_growth_to_the_stability_limit():
    assert adapt_step(0.8, 1.0, 1.0, step_max=1.0) == 1.0


def test_adapt_step_keeps_previous_step_on_underflow():
    tiny = 5e-324  # smallest subnormal; dividing by three rounds to zero
    assert tiny / 3.0 == 0.0
    assert adapt_step(tiny, 1.0, -1.0, step_max=1.0) == tiny


@settings(max_examples=200, deadline=None)
@given(
    step=st.floats(1e-300, 1.0),
    now=st.floats(-10.0, 10.0),
    prev=st.floats(-10.0, 10.0),
    step_max=st.floats(1e-3, 2.0),
)
def test_adapt_step_stays_positive_and_bounded(step, now, prev, step_max):
    step = min(step, step_max)
    out = adapt_step(step, now, prev, step_max)
    assert 0.0 < out <= step_max


# ---------------------------------------------------------------- message handling


def test_stale_or_duplicate_message_returns_the_same_object():
    before = state(seq=5)
    for proto in (GRADES, PISYNC):
        for seq in (3, 5):
            after = on_message(proto, before, seq, 123.0, hw_now=1.0, beacon_period=1.0,
                               nominal_freq=1.0)
            assert after is before


def test_accepted_message_jumps_the_clock_exactly_onto_the_payload():
    g = state(value=100.05, hw=50.0)
    g2 = on_message(GRADES, g, 1, 100.0, hw_now=50.0, beacon_period=1.0, nominal_freq=1.0)
    assert g2.clock.read(50.0) == 100.0  # exact, not approximate
    assert g2.seq == 1
    assert g.clock.read(50.0) == 100.05  # input state untouched


def test_on_message_offset_jump_is_exact_and_zero_error_keeps_the_rate():
    before = state(value=100.0, rate=1.0001, hw=0.0, step=1e-4)
    assert before.clock.read(50.0) == pytest.approx(150.0050, rel=1e-12)
    for proto in (GRADES, PISYNC):
        moved = on_message(proto, before, 1, 100.0, hw_now=50.0, beacon_period=1.0,
                           nominal_freq=1.0, adapt=False)
        assert moved.clock.read(50.0) == 100.0
        # Setting the current reading back onto the clock leaves the rate and reads alone.
        same = on_message(proto, before, 1, before.clock.read(50.0), hw_now=50.0,
                          beacon_period=1.0, nominal_freq=1.0, adapt=False)
        assert same.clock.rate_multiplier == 1.0001
        for hw in (50.0, 61.5, 80.0):
            assert same.clock.read(hw) == pytest.approx(before.clock.read(hw), rel=1e-15)
        with pytest.raises(ContractViolation, match="before last update"):
            on_message(proto, before, 2, 100.0, hw_now=-1.0, beacon_period=1.0,
                       nominal_freq=1.0)


def test_grades_rate_update_example():
    # error 0.05 at unit round length: rate moves by -step * 2 * error.
    g = state(value=100.05, hw=50.0, step=0.1)
    g2 = on_message(GRADES, g, 1, 100.0, hw_now=50.0, beacon_period=1.0, nominal_freq=1.0,
                    adapt=False)
    assert g2.clock.rate_multiplier == pytest.approx(0.99, rel=1e-12)
    assert g2.step_size == 0.1
    assert g2.prev_signal == pytest.approx(0.1, rel=1e-12)


def test_pisync_rate_update_example():
    p = state(value=100.05, hw=50.0, step=0.1)
    p2 = on_message(PISYNC, p, 1, 100.0, hw_now=50.0, beacon_period=1.0, nominal_freq=1.0,
                    adapt=False)
    assert p2.clock.rate_multiplier == pytest.approx(0.995, rel=1e-12)
    assert p2.prev_signal == pytest.approx(0.05, rel=1e-12)


def test_zero_error_message_leaves_rate_alone_and_shrinks_the_step():
    before = state(value=100.0, rate=1.0003, hw=50.0, step=0.3, prev=2.0)
    for proto in (GRADES, PISYNC):
        after = on_message(proto, before, 1, 100.0, hw_now=50.0, beacon_period=1.0,
                           nominal_freq=1.0)
        assert after.clock.rate_multiplier == 1.0003
        assert after.step_size == pytest.approx(0.1)


def test_adaptation_uses_the_protocols_own_stability_limit():
    g = state(value=1.0, hw=0.0, step=0.75, prev=1.0)
    g2 = on_message(GRADES, g, 1, 0.9, hw_now=0.0, beacon_period=1.0, nominal_freq=1.0)
    assert g2.step_size == 1.0  # doubled 0.75 -> 1.5, clamped at 1/(B*f0)^2
    p = state(value=1.0, hw=0.0, step=1.5, prev=1.0)
    p2 = on_message(PISYNC, p, 1, 0.9, hw_now=0.0, beacon_period=1.0, nominal_freq=1.0)
    assert p2.step_size == 2.0  # doubled 1.5 -> 3.0, clamped at 2/(B*f0)


def test_mis_scaled_step_raises_instead_of_producing_a_frozen_clock():
    g = state(value=10.0, hw=0.0, step=0.1)
    with pytest.raises(ContractViolation, match="mis-scaled"):
        on_message(GRADES, g, 1, 0.0, hw_now=0.0, beacon_period=1.0, nominal_freq=1.0,
                   adapt=False)
    p = state(value=30.0, hw=0.0, step=0.1)
    with pytest.raises(ContractViolation, match="mis-scaled"):
        on_message(PISYNC, p, 1, 0.0, hw_now=0.0, beacon_period=1.0, nominal_freq=1.0,
                   adapt=False)


@settings(max_examples=150, deadline=None)
@given(
    seqs=st.lists(st.integers(0, 12), min_size=1, max_size=25),
    payload=st.floats(-5.0, 5.0),
)
def test_sequence_numbers_never_decrease_and_stale_floods_are_noops(seqs, payload):
    g = state(value=payload, hw=0.0, step=1e-3)
    hw = 0.0
    for seq in seqs:
        before = g.seq
        out = on_message(GRADES, g, seq, payload, hw_now=hw, beacon_period=1.0, nominal_freq=1.0)
        if seq <= before:
            assert out is g
        else:
            assert out.seq == seq
        assert out.seq >= before
        g = out


@settings(max_examples=150, deadline=None)
@given(
    value=st.floats(-100.0, 100.0),
    payload=st.floats(-100.0, 100.0),
    hw=st.floats(0.0, 100.0),
)
def test_offset_exactness_holds_for_any_accepted_message(value, payload, hw):
    before = state(value=value, hw=hw, step=1e-4)
    for proto in (GRADES, PISYNC):
        after = on_message(proto, before, 1, payload, hw_now=hw, beacon_period=1.0,
                           nominal_freq=1.0)
        assert after.clock.read(hw) == payload


@settings(max_examples=100, deadline=None)
@given(
    errors=st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=30),
    beacon_period=st.floats(0.5, 40.0),
)
def test_adapted_step_never_exceeds_the_stability_limit(errors, beacon_period):
    limit = step_size_limit(GRADES, beacon_period, 1.0)
    g = SyncState(step_size=limit / 8, clock=LogicalClock(0.0, 1.0, 0.0))
    hw = 0.0
    for k, err in enumerate(errors, start=1):
        # Manufacture a reading that sits err below the local reading.
        received = g.clock.read(hw) - err * beacon_period
        try:
            g = on_message(GRADES, g, k, received, hw_now=hw, beacon_period=beacon_period,
                           nominal_freq=1.0)
        except ContractViolation:
            return  # a mis-scaled update is rejected loudly, never applied
        assert 0.0 < g.step_size <= limit


@settings(max_examples=100, deadline=None)
@given(
    errors=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=15),
    fraction=st.floats(0.01, 0.45),
    bf=st.floats(0.5, 50.0),
)
def test_equal_fraction_steps_give_identical_rate_trajectories(errors, fraction, bf):
    # At step sizes that are the same fraction of each protocol's stability
    # limit, both rate updates reduce to -2 * fraction * error / (B * f0),
    # so the two controllers move in lockstep on identical inputs, down to
    # both rejecting the same update that would drive the rate non-positive.
    g = SyncState(fraction * step_size_limit(GRADES, bf, 1.0), clock=LogicalClock())
    p = SyncState(fraction * step_size_limit(PISYNC, bf, 1.0), clock=LogicalClock())
    hw = 0.0
    for k, err in enumerate(errors, start=1):
        payload = g.clock.read(hw) - err
        try:
            g = on_message(GRADES, g, k, payload, hw_now=hw, beacon_period=bf,
                           nominal_freq=1.0, adapt=False)
        except ContractViolation:
            with pytest.raises(ContractViolation):
                on_message(PISYNC, p, k, payload, hw_now=hw, beacon_period=bf,
                           nominal_freq=1.0, adapt=False)
            return
        p = on_message(PISYNC, p, k, payload, hw_now=hw, beacon_period=bf, nominal_freq=1.0,
                       adapt=False)
        assert g.clock.rate_multiplier == pytest.approx(p.clock.rate_multiplier, rel=1e-12)


# ---------------------------------------------------------------- beacon emission


def test_reference_beacon_increments_seq_and_advertises_hardware_time():
    g = state(value=999.0, hw=0.0, seq=4)
    p = state(value=888.0, hw=0.0, seq=4)
    (g2, p2), msg = on_beacon_tick((g, p), is_reference=True, hw_now=5000.25)
    assert (g2.seq, p2.seq, msg.seq) == (5, 5, 5)
    assert msg.readings == (5000.25, 5000.25)


def test_relay_beacon_keeps_seq_and_advertises_logical_readings():
    g = state(value=100.0, rate=1.5, hw=10.0, seq=4)
    p = state(value=200.0, rate=0.5, hw=10.0, seq=4)
    (g2, p2), msg = on_beacon_tick((g, p), is_reference=False, hw_now=12.0)
    assert g2 is g and p2 is p
    assert msg.seq == 4
    assert msg.readings[0] == pytest.approx(103.0, rel=1e-12)
    assert msg.readings[1] == pytest.approx(201.0, rel=1e-12)


def test_single_protocol_beacons_leave_the_other_payload_empty():
    g = state(seq=2)
    (g2,), msg = on_beacon_tick((g,), is_reference=True, hw_now=3.0)
    assert msg.readings == (3.0,)  # no reading for a protocol that is not running
    assert g2.seq == 3


def test_beacon_demands_protocol_states_in_sequence_lockstep():
    g = state(seq=4)
    p = state(seq=5)
    with pytest.raises(ContractViolation, match="sequence"):
        on_beacon_tick((g, p), is_reference=False, hw_now=1.0)
