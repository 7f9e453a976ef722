"""Synchronization protocol state machines.

Two rate-correcting flooding protocols share one update rule.  On an accepted
message with sync error e a node first jumps its logical value onto the
received clock (offset correction), then moves its rate multiplier by
``-step * signal`` with ``signal = error_scale(protocol) * e``:

* ``grades`` — treats the squared sync error as a loss and descends its
  gradient: the signal is the per-round gradient 2 * beacon_period *
  nominal_freq * e.
* ``pisync`` — a proportional-integral controller: the offset jump is the
  proportional part and the signal is e itself.

The two therefore differ only in the unit of the step size.  A message is
accepted only if it carries a strictly newer sequence number, which makes
re-delivered or out-of-order floods harmless.

All transition functions are pure: they take a state and return a new one,
leaving the input untouched.  States and messages are immutable named tuples,
which are cheap to build once per accepted message.
"""

from __future__ import annotations

from typing import NamedTuple

from .clocks import LogicalClock
from .errors import ContractViolation

GRADES = "grades"
PISYNC = "pisync"
PROTOCOLS = (GRADES, PISYNC)


def step_size_limit(protocol: str, beacon_period: float, nominal_freq: float) -> float:
    """Largest stable step size: 2 / (beacon_period * nominal_freq * error_scale).

    grades: 1 / (beacon_period * nominal_freq)**2
    pisync: 2 / (beacon_period * nominal_freq)
    """
    return 2.0 / (beacon_period * nominal_freq * error_scale(protocol, beacon_period, nominal_freq))


def error_scale(protocol: str, beacon_period: float, nominal_freq: float) -> float:
    """Factor turning a sync error into the protocol's update signal.

    grades: 2 * beacon_period * nominal_freq (the squared-error gradient)
    pisync: 1
    """
    if protocol == GRADES:
        return 2.0 * beacon_period * nominal_freq
    if protocol == PISYNC:
        return 1.0
    raise ValueError(f"unknown protocol: {protocol!r}")


class SyncState(NamedTuple):
    """One protocol's view at one node: step size, last signal, flood seq, clock."""

    step_size: float
    prev_signal: float = 0.0
    seq: int = 0
    clock: LogicalClock = LogicalClock()


class SyncMessage(NamedTuple):
    """One broadcast: flood sequence number and one clock reading per protocol.

    ``readings`` follows the order of the protocol states the beacon was
    emitted from, so a single physical message serves every enabled protocol.
    """

    seq: int
    readings: tuple[float, ...]


def compute_error(local_read: float, received_clock: float) -> float:
    """Sync error: local logical reading minus received clock value.

    Channel noise is already embedded in ``received_clock`` by the transport.
    """
    return local_read - received_clock


def adapt_step(step: float, signal_now: float, signal_prev: float, step_max: float) -> float:
    """Sign-agreement step adaptation.

    Consecutive update signals with the same sign mean we are still far from
    the optimum: double the step.  A sign flip (or a zero, including the very
    first update) means overshoot: divide by three.  The result is clamped to
    ``step_max``; if the shrink underflows to exactly zero the previous step
    is kept.
    """
    grown = 2.0 * step if signal_now * signal_prev > 0 else step / 3.0
    if grown > step_max:
        grown = step_max
    if grown == 0.0:
        grown = step
    return grown


def on_message(
    protocol: str,
    state: SyncState,
    seq: int,
    received_clock: float,
    hw_now: float,
    beacon_period: float,
    nominal_freq: float,
    adapt: bool = True,
) -> SyncState:
    """Process a received flood reading; a stale sequence number returns ``state`` itself."""
    if seq <= state.seq:
        return state
    clock = state.clock
    # The read also rejects an update before the clock's last hardware reading.
    error = compute_error(clock.read(hw_now), received_clock)
    signal = error_scale(protocol, beacon_period, nominal_freq) * error
    step = state.step_size
    if adapt:
        step = adapt_step(
            step, signal, state.prev_signal, step_size_limit(protocol, beacon_period, nominal_freq)
        )
    rate = clock.rate_multiplier - step * signal
    if rate <= 0:
        raise ContractViolation(
            f"rate multiplier driven to {rate} (step size {step} is mis-scaled for "
            f"beacon_period={beacon_period}, nominal_freq={nominal_freq})"
        )
    return SyncState(step, signal, seq, LogicalClock(received_clock, rate, hw_now))


def on_beacon_tick(
    states: tuple[SyncState, ...],
    is_reference: bool,
    hw_now: float,
) -> tuple[tuple[SyncState, ...], SyncMessage]:
    """Emit a broadcast when a node's hardware clock crosses a round boundary.

    The reference node increments the flood sequence number before emitting
    and always advertises its raw hardware reading (its logical clock is its
    hardware clock; it never corrects itself).  Everyone else re-broadcasts
    its current logical readings under its current sequence number.
    """
    seq = states[0].seq
    for s in states:
        if s.seq != seq:
            seqs = sorted({s.seq for s in states})
            raise ContractViolation(f"protocol states disagree on sequence number: {seqs}")
    if is_reference:
        seq += 1
        states = tuple([SyncState(s.step_size, s.prev_signal, seq, s.clock) for s in states])
        readings = (hw_now,) * len(states)
    else:
        readings = tuple([s.clock.read(hw_now) for s in states])
    return states, SyncMessage(seq, readings)
